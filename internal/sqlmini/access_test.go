package sqlmini

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rcep/internal/core/event"
	"rcep/internal/store"
)

// accessDB creates t(k STRING, n INT, f FLOAT, at TIME), with a hash
// index on every column when indexed is set.
func accessDB(t *testing.T, indexed bool) *store.Store {
	t.Helper()
	s := store.New()
	mustExec(t, s, `CREATE TABLE t (k STRING, n INT, f FLOAT, at TIME)`, nil)
	if indexed {
		tbl, _ := s.Table("t")
		for _, c := range tbl.Schema() {
			if err := tbl.CreateIndex(c.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// render prints result rows with each value's kind, so -0 and 0, or 5 and
// '5', stay distinct.
func render(rows [][]event.Value) string {
	var b strings.Builder
	for _, r := range rows {
		for _, v := range r {
			fmt.Fprintf(&b, "%s:%s|", v.Kind(), v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func dumpTable(t *testing.T, s *store.Store) string {
	t.Helper()
	tbl, err := s.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]event.Value
	tbl.Scan(func(id int64, r store.Row) bool {
		rows = append(rows, append([]event.Value{event.IntValue(id)}, r...))
		return true
	})
	return render(rows)
}

// TestIndexProbeCoercesLikeScan pins the probe to compareValues: a value
// that does not coerce to the column kind scans, and float zero is one key.
func TestIndexProbeCoercesLikeScan(t *testing.T) {
	negZero := event.MakeBindings(map[string]event.Value{"z": event.FloatValue(math.Copysign(0, -1))})
	for _, q := range []struct {
		sql    string
		params event.Bindings
	}{
		{`SELECT k FROM t WHERE n = '5'`, nil},
		{`SELECT k FROM t WHERE f = 0`, nil},
		{`SELECT k FROM t WHERE f = z`, negZero},
		{`SELECT k FROM t WHERE 5 = f`, nil},
	} {
		var got []string
		for _, indexed := range []bool{false, true} {
			s := accessDB(t, indexed)
			mustExec(t, s, `INSERT INTO t VALUES ('a', 5, z, 0)`, negZero)
			mustExec(t, s, `INSERT INTO t VALUES ('b', 6, 5.7, 0)`, nil)
			got = append(got, render(mustExec(t, s, q.sql, q.params).Rows))
		}
		if got[0] != got[1] || got[0] == "" {
			t.Errorf("%s: scan %q, indexed %q", q.sql, got[0], got[1])
		}
	}
}

// TestIndexBucketKeepsInsertionOrder re-keys a row into a bucket that
// already holds a later row: indexed reads, the WAL replay and a snapshot
// reload must all still list the bucket in insertion order.
func TestIndexBucketKeepsInsertionOrder(t *testing.T) {
	const q = `SELECT n FROM t WHERE k = 'B'`
	s := accessDB(t, true)
	mustExec(t, s, `INSERT INTO t VALUES ('A', 1, 0, 0)`, nil)
	mustExec(t, s, `INSERT INTO t VALUES ('B', 2, 0, 0)`, nil)
	var snap, wal bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	w, _ := store.NewWAL(s, &wal)
	mustExec(t, s, `UPDATE t SET k = 'B' WHERE n = 1`, nil)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "int:1|\nint:2|\n"
	if got := render(mustExec(t, s, q, nil).Rows); got != want {
		t.Errorf("live store: got %q, want %q", got, want)
	}
	replayed, err := store.Load(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.ReplayWAL(replayed, &wal); err != nil {
		t.Fatal(err)
	}
	if got := render(mustExec(t, replayed, q, nil).Rows); got != want {
		t.Errorf("WAL replay: got %q, want %q", got, want)
	}
	snap.Reset()
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	reloaded, err := store.Load(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(mustExec(t, reloaded, q, nil).Rows); got != want {
		t.Errorf("snapshot reload: got %q, want %q", got, want)
	}
}

// accessGen draws random statements over t whose WHERE never fails to
// evaluate, so the indexed and the scanning store must agree on every
// outcome, errors from SET included.
type accessGen struct {
	rng *rand.Rand
}

var (
	accessCols = []string{"k", "n", "f", "at"}
	// accessPool mixes kinds on purpose: every column is probed with
	// values of other kinds, with zero of both signs, and with null.
	accessPool = []event.Value{
		event.StringValue("A"), event.StringValue("B"), event.StringValue("5"),
		event.StringValue("UC"), event.StringValue("TRUE"),
		event.IntValue(0), event.IntValue(1), event.IntValue(5),
		event.FloatValue(0), event.FloatValue(math.Copysign(0, -1)),
		event.FloatValue(5), event.FloatValue(5.5), event.FloatValue(5.7),
		event.TimeValue(5), event.TimeValue(store.UC),
		event.BoolValue(true), event.Null,
	}
)

func (g *accessGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

func (g *accessGen) value() event.Value { return accessPool[g.rng.Intn(len(accessPool))] }

// params binds p1..p3 to pool values, and sometimes binds a column name
// too: the WHERE must still read the column, so `f = n` never probes.
func (g *accessGen) params() event.Bindings {
	m := map[string]event.Value{"p1": g.value(), "p2": g.value(), "p3": g.value()}
	if g.rng.Intn(3) == 0 {
		m[g.pick(accessCols)] = g.value()
	}
	return event.MakeBindings(m)
}

func (g *accessGen) atom() string {
	col, p := g.pick(accessCols), g.pick([]string{"p1", "p2", "p3"})
	switch g.rng.Intn(9) {
	case 0, 1, 2:
		return col + " = " + p
	case 3, 4:
		return p + " = " + col
	case 5:
		return col + " = " + g.pick(accessCols)
	case 6:
		return col + " != " + p
	case 7:
		return col + g.pick([]string{" IS NULL", " IS NOT NULL"})
	}
	return g.pick([]string{"n > 2", "n <= 1", "f < 5", "f >= 0", "at < 5"})
}

func (g *accessGen) where() string {
	parts := []string{g.atom()}
	for g.rng.Intn(2) == 0 && len(parts) < 3 {
		parts = append(parts, g.atom())
	}
	w := strings.Join(parts, " AND ")
	if g.rng.Intn(6) == 0 {
		w = "(" + w + ") OR " + g.atom()
	}
	return w
}

func (g *accessGen) stmt() string {
	switch g.rng.Intn(10) {
	case 0, 1, 2:
		return "SELECT k, n, f, at FROM t WHERE " + g.where()
	case 3, 4, 5:
		col := g.pick(accessCols)
		val := g.pick([]string{"p1", "p2", "p3", "n + 1", "k || 'x'"})
		return "UPDATE t SET " + col + " = " + val + " WHERE " + g.where()
	case 6, 7:
		return "DELETE FROM t WHERE " + g.where()
	}
	return "INSERT INTO t VALUES (p1, p2, p3, p1)"
}

func (g *accessGen) fill(t *testing.T, stores ...*store.Store) {
	t.Helper()
	keys := []event.Value{event.StringValue("A"), event.StringValue("B"), event.StringValue("5"), event.StringValue("true"), event.Null}
	nums := []event.Value{event.IntValue(0), event.IntValue(1), event.IntValue(5), event.IntValue(6), event.Null}
	floats := []event.Value{event.FloatValue(0), event.FloatValue(math.Copysign(0, -1)), event.FloatValue(1.5), event.FloatValue(5), event.FloatValue(5.7), event.Null}
	times := []event.Value{event.TimeValue(0), event.TimeValue(5), event.TimeValue(store.UC), event.Null}
	for i := 0; i < 20+g.rng.Intn(20); i++ {
		row := []event.Value{
			keys[g.rng.Intn(len(keys))], nums[g.rng.Intn(len(nums))],
			floats[g.rng.Intn(len(floats))], times[g.rng.Intn(len(times))],
		}
		for _, s := range stores {
			tbl, _ := s.Table("t")
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAccessPathDifferential runs random SELECT/UPDATE/DELETE statements,
// with and without indexed equality conjuncts, against an indexed and an
// unindexed copy of one table. Results, RowsAffected, errors, table
// contents and the journal must match; replaying the indexed store's WAL
// into its snapshot must rebuild the same table and indexes.
func TestAccessPathDifferential(t *testing.T) {
	probed := 0
	for seed := int64(1); seed <= 150; seed++ {
		g := &accessGen{rng: rand.New(rand.NewSource(seed))}
		indexed, scanned := accessDB(t, true), accessDB(t, false)
		g.fill(t, indexed, scanned)
		var snap, walIdx, walScan bytes.Buffer
		if err := indexed.Save(&snap); err != nil {
			t.Fatal(err)
		}
		wIdx, _ := store.NewWAL(indexed, &walIdx)
		wScan, _ := store.NewWAL(scanned, &walScan)
		tbl, _ := indexed.Table("t")
		for i := 0; i < 40; i++ {
			sql, params := g.stmt(), g.params()
			st, err := Parse(sql)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, sql, err)
			}
			if where := whereOf(st); where != nil && accessPath(indexed, tbl, where, params).Col != "" {
				probed++
			}
			ri, ei := ExecStmt(indexed, st, params)
			rs, es := ExecStmt(scanned, st, params)
			if fmt.Sprint(ei) != fmt.Sprint(es) {
				t.Fatalf("seed %d: %s %v\nindexed err: %v\nscan err:    %v", seed, sql, params, ei, es)
			}
			if ei == nil && (ri.RowsAffected != rs.RowsAffected || render(ri.Rows) != render(rs.Rows)) {
				t.Fatalf("seed %d: %s %v\nindexed: %d %q\nscan:    %d %q",
					seed, sql, params, ri.RowsAffected, render(ri.Rows), rs.RowsAffected, render(rs.Rows))
			}
			if di, ds := dumpTable(t, indexed), dumpTable(t, scanned); di != ds {
				t.Fatalf("seed %d: %s %v: tables diverge\nindexed:\n%s\nscan:\n%s", seed, sql, params, di, ds)
			}
		}
		_, _ = wIdx.Flush(), wScan.Flush()
		if !bytes.Equal(walIdx.Bytes(), walScan.Bytes()) {
			t.Fatalf("seed %d: journals diverge", seed)
		}
		replayed, err := store.Load(&snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.ReplayWAL(replayed, &walIdx); err != nil {
			t.Fatal(err)
		}
		if dr, di := dumpTable(t, replayed), dumpTable(t, indexed); dr != di {
			t.Fatalf("seed %d: WAL replay diverges\nreplayed:\n%s\nlive:\n%s", seed, dr, di)
		}
		for _, col := range accessCols {
			for _, v := range accessPool {
				q := fmt.Sprintf("SELECT k, n, f, at FROM t WHERE %s = p1", col)
				params := event.MakeBindings(map[string]event.Value{"p1": v})
				if a, b := render(mustExec(t, replayed, q, params).Rows), render(mustExec(t, scanned, q, params).Rows); a != b {
					t.Fatalf("seed %d: %s with p1=%s: replayed index %q, scan %q", seed, q, v, a, b)
				}
			}
		}
	}
	if probed < 1000 {
		t.Errorf("only %d statements took the index probe", probed)
	}
}

func whereOf(st Stmt) Expr {
	switch x := st.(type) {
	case *Select:
		return x.Where
	case *Update:
		return x.Where
	case *Delete:
		return x.Where
	}
	return nil
}

// TestAccessPathQualifyingConjuncts pins which conjunct becomes the probe:
// never one whose value reads a column (a parameter shadowed by a column
// name) or aggregates, nor a mixed-kind value the scan would not coerce.
func TestAccessPathQualifyingConjuncts(t *testing.T) {
	s := accessDB(t, true)
	tbl, _ := s.Table("t")
	params := event.MakeBindings(map[string]event.Value{"n": event.IntValue(1), "p": event.IntValue(1)})
	for sql, want := range map[string]string{
		`SELECT * FROM t WHERE k = n`:               "",
		`SELECT * FROM t WHERE n = p`:               "n",
		`SELECT * FROM t WHERE p = n`:               "n",
		`SELECT * FROM t WHERE n = '1'`:             "",
		`SELECT * FROM t WHERE '1' = k`:             "k",
		`SELECT * FROM t WHERE 1 = k`:               "",
		`SELECT * FROM t WHERE n = MAX(p)`:          "",
		`SELECT * FROM t WHERE f > 0 AND at = 'UC'`: "at",
	} {
		st, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := accessPath(s, tbl, whereOf(st), params).Col; got != want {
			t.Errorf("%s: probe column %q, want %q", sql, got, want)
		}
	}
	if p := accessPath(s, tbl, nil, nil); p.Col != "" {
		t.Errorf("no WHERE must scan, got a probe on %s", p.Col)
	}
}
