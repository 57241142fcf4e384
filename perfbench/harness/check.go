package harness

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"rcep"
	"rcep/internal/wire"
)

// Tables are the store tables the correctness check compares.
var Tables = []string{"OBJECTLOCATION", "OBJECTCONTAINMENT", "INVENTORY", "ALERTS", "OBSERVATION"}

// Fire is one rule firing in the form the correctness check compares:
// rule, detection span and bindings, with the bindings as canonical JSON
// (sorted keys, timestamps as integer nanoseconds).
type Fire struct {
	Rule     string
	Begin    int64
	End      int64
	Bindings string
}

func (f Fire) String() string {
	return f.Rule + " [" + strconv.FormatInt(f.Begin, 10) + ".." + strconv.FormatInt(f.End, 10) + "] " + f.Bindings
}

// canonJSON renders v as JSON after a round trip through the generic JSON
// types, so a value the server encoded and the client decoded compares
// equal to the same value taken straight from an engine (durations and
// float64-decoded integers print alike).
func canonJSON(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	var generic any
	if err := json.Unmarshal(raw, &generic); err != nil {
		return "", err
	}
	raw, err = json.Marshal(generic)
	return string(raw), err
}

// wireFires converts fire frames as a client received them.
func wireFires(ms []wire.Message) ([]Fire, error) {
	out := make([]Fire, len(ms))
	for i, m := range ms {
		b, err := canonJSON(m.Bindings)
		if err != nil {
			return nil, err
		}
		out[i] = Fire{Rule: m.Rule, Begin: m.BeginNS, End: m.EndNS, Bindings: b}
	}
	return out, nil
}

// engineFires converts detections delivered by an in-process engine.
func engineFires(ds []rcep.Detection) ([]Fire, error) {
	out := make([]Fire, len(ds))
	for i, d := range ds {
		b, err := canonJSON(d.Bindings)
		if err != nil {
			return nil, err
		}
		out[i] = Fire{Rule: d.RuleID, Begin: int64(d.Begin), End: int64(d.End), Bindings: b}
	}
	return out, nil
}

// StreamHash folds a fire stream, in delivery order, into one FNV-1a hash.
func StreamHash(fs []Fire) string {
	h := fnv.New64a()
	for _, f := range fs {
		fmt.Fprintf(h, "%s|%d|%d|%s\n", f.Rule, f.Begin, f.End, f.Bindings)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// CompareFires reports the first difference between the reference stream
// and the one a subscriber received, or nil when they are equal.
func CompareFires(want, got []Fire) error {
	n := min(len(want), len(got))
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			return fmt.Errorf("fire #%d differs: reference %s, server %s", i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		return fmt.Errorf("fire count differs: reference %d, server %d (hashes %s vs %s)",
			len(want), len(got), StreamHash(want), StreamHash(got))
	}
	return nil
}

// Dump is one table's content: its row count and the canonical JSON of
// its rows in table order.
type Dump struct {
	Rows int
	JSON string
}

// Hash is the FNV-1a hash of the table's canonical JSON.
func (d Dump) Hash() string {
	h := fnv.New64a()
	h.Write([]byte(d.JSON))
	return fmt.Sprintf("%016x", h.Sum64())
}

// dumpRows canonicalizes query result rows. Durations become integer
// nanoseconds, as the wire server sends them.
func dumpRows(rows [][]any) (Dump, error) {
	norm := make([][]any, len(rows))
	for i, r := range rows {
		row := make([]any, len(r))
		for j, v := range r {
			if d, ok := v.(time.Duration); ok {
				row[j] = int64(d)
			} else {
				row[j] = v
			}
		}
		norm[i] = row
	}
	s, err := canonJSON(norm)
	return Dump{Rows: len(rows), JSON: s}, err
}

// dumpTables reads every compared table through a query function.
func dumpTables(query func(string) ([]string, [][]any, error)) (map[string]Dump, error) {
	out := map[string]Dump{}
	for _, t := range Tables {
		_, rows, err := query("SELECT * FROM " + t)
		if err != nil {
			return nil, fmt.Errorf("dump %s: %w", t, err)
		}
		if out[t], err = dumpRows(rows); err != nil {
			return nil, fmt.Errorf("dump %s: %w", t, err)
		}
	}
	return out, nil
}

// CompareTables reports the first table whose content differs.
func CompareTables(want, got map[string]Dump) error {
	for _, t := range Tables {
		w, g := want[t], got[t]
		if w.JSON != g.JSON {
			return fmt.Errorf("table %s differs: reference %d rows (%s), server %d rows (%s)",
				t, w.Rows, w.Hash(), g.Rows, g.Hash())
		}
	}
	return nil
}
