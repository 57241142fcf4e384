package sqlmini

import (
	"fmt"
	"testing"

	"rcep/internal/core/event"
	"rcep/internal/store"
)

func benchDB(b *testing.B, rows int, indexed bool) *store.Store {
	b.Helper()
	s := store.New()
	if _, err := Exec(s, `CREATE TABLE t (k STRING, v INT, f FLOAT)`, nil); err != nil {
		b.Fatal(err)
	}
	tbl, _ := s.Table("t")
	for i := 0; i < rows; i++ {
		err := tbl.Insert([]event.Value{
			event.StringValue(fmt.Sprintf("k%d", i%100)),
			event.IntValue(int64(i)),
			event.FloatValue(float64(i) / 3),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if indexed {
		if err := tbl.CreateIndex("k"); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func BenchmarkParseSelect(b *testing.B) {
	const q = `SELECT k, COUNT(*) AS n FROM t WHERE v > 10 AND k LIKE 'k%' GROUP BY k HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 5`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectScan(b *testing.B) {
	s := benchDB(b, 10_000, false)
	stmt, _ := Parse(`SELECT COUNT(*) FROM t WHERE k = 'k42'`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecStmt(s, stmt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectIndexProbe(b *testing.B) {
	s := benchDB(b, 10_000, true)
	stmt, _ := Parse(`SELECT COUNT(*) FROM t WHERE k = 'k42'`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecStmt(s, stmt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertWithParams(b *testing.B) {
	s := benchDB(b, 0, false)
	stmt, _ := Parse(`INSERT INTO t VALUES (k, v, 1.5)`)
	params := event.MakeBindings(map[string]event.Value{"k": event.StringValue("x"), "v": event.IntValue(1)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecStmt(s, stmt, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateUCPattern(b *testing.B) {
	// Rule 3's hot path over a pre-filled OBJECTLOCATION: close the
	// object's open period and open a new one, then delete the period just
	// closed so the table keeps its size whatever b.N is. With the
	// object_epc probe the cost per op stays flat across table sizes.
	upd, _ := Parse(`UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND tend = 'UC'`)
	ins, _ := Parse(`INSERT INTO OBJECTLOCATION VALUES (o, r, t, 'UC')`)
	del, _ := Parse(`DELETE FROM OBJECTLOCATION WHERE object_epc = o AND tend = t`)
	for _, rows := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			const periodsPerObject = 10
			objects := rows / periodsPerObject
			obj := func(i int) event.Value { return event.StringValue(fmt.Sprintf("obj%d", i%objects)) }
			s := store.OpenRFID()
			loc, _ := s.Table(store.TableLocation)
			for i := 0; i < rows; i++ {
				end := event.TimeValue(event.Time(i + 1))
				if i >= rows-objects {
					end = event.TimeValue(store.UC) // each object's last period is open
				}
				if err := loc.Insert([]event.Value{obj(i), event.StringValue("dock"), event.TimeValue(event.Time(i)), end}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				params := event.MakeBindings(map[string]event.Value{
					"o": obj(i),
					"r": event.StringValue("dock"),
					"t": event.TimeValue(event.Time(rows + 1 + i)),
				})
				for _, st := range []Stmt{upd, ins, del} {
					if res, err := ExecStmt(s, st, params); err != nil || res.RowsAffected != 1 {
						b.Fatalf("%v: affected %v, err %v", st, res, err)
					}
				}
			}
			if loc.Len() != rows {
				b.Fatalf("table drifted to %d rows", loc.Len())
			}
		})
	}
}
