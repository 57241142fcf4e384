package store

import (
	"rcep/internal/core/event"
)

// Standard RFID data-store table names (paper §3).
const (
	TableObservation = "OBSERVATION"
	TableLocation    = "OBJECTLOCATION"
	TableContainment = "OBJECTCONTAINMENT"
	TableInventory   = "INVENTORY"
	TableAlerts      = "ALERTS"
)

// OpenRFID returns a store pre-created with the paper's RFID schema:
//
//	OBSERVATION(reader_epc, object_epc, at)
//	OBJECTLOCATION(object_epc, loc_id, tstart, tend)      — §3.2 Rule 3
//	OBJECTCONTAINMENT(object_epc, parent_epc, tstart, tend) — §3.2 Rule 4
//	INVENTORY(loc_id, object_epc, tstart, tend)           — smart shelf
//	ALERTS(rule_name, object_epc, at)                     — §3.3 Rule 5
//
// Time columns use the UC sentinel for open-ended periods. The object_epc
// columns are hash-indexed, matching the update patterns of the rules.
func OpenRFID() *Store {
	s := New()
	must := func(err error) {
		if err != nil {
			panic("store: OpenRFID: " + err.Error())
		}
	}
	must(s.CreateTable(TableObservation, Schema{
		{Name: "reader_epc", Type: event.KindString},
		{Name: "object_epc", Type: event.KindString},
		{Name: "at", Type: event.KindTime},
	}))
	must(s.CreateTable(TableLocation, Schema{
		{Name: "object_epc", Type: event.KindString},
		{Name: "loc_id", Type: event.KindString},
		{Name: "tstart", Type: event.KindTime},
		{Name: "tend", Type: event.KindTime},
	}))
	must(s.CreateTable(TableContainment, Schema{
		{Name: "object_epc", Type: event.KindString},
		{Name: "parent_epc", Type: event.KindString},
		{Name: "tstart", Type: event.KindTime},
		{Name: "tend", Type: event.KindTime},
	}))
	must(s.CreateTable(TableInventory, Schema{
		{Name: "loc_id", Type: event.KindString},
		{Name: "object_epc", Type: event.KindString},
		{Name: "tstart", Type: event.KindTime},
		{Name: "tend", Type: event.KindTime},
	}))
	must(s.CreateTable(TableAlerts, Schema{
		{Name: "rule_name", Type: event.KindString},
		{Name: "object_epc", Type: event.KindString},
		{Name: "at", Type: event.KindTime},
	}))
	for _, tbl := range []string{TableLocation, TableContainment, TableInventory} {
		t, err := s.Table(tbl)
		must(err)
		must(t.CreateIndex("object_epc"))
	}
	return s
}

// LocationAt returns the location of an object at time at, following the
// temporal model: the row whose [tstart, tend) period covers at.
func LocationAt(s *Store, objectEPC string, at event.Time) (string, bool) {
	t, err := s.Table(TableLocation)
	if err != nil {
		return "", false
	}
	var loc string
	found := false
	_ = t.Lookup(Probe{Col: "object_epc", Val: event.StringValue(objectEPC)}, func(_ int64, r Row) bool {
		if !r[2].Time().After(at) && at.Before(r[3].Time()) {
			loc = r[1].Str()
			found = true
			return false
		}
		return true
	})
	return loc, found
}

// ContainerAt returns the container of an object at time at.
func ContainerAt(s *Store, objectEPC string, at event.Time) (string, bool) {
	t, err := s.Table(TableContainment)
	if err != nil {
		return "", false
	}
	var parent string
	found := false
	_ = t.Lookup(Probe{Col: "object_epc", Val: event.StringValue(objectEPC)}, func(_ int64, r Row) bool {
		if !r[2].Time().After(at) && at.Before(r[3].Time()) {
			parent = r[1].Str()
			found = true
			return false
		}
		return true
	})
	return parent, found
}

// ContentsAt returns the objects contained in parentEPC at time at, in
// insertion order.
func ContentsAt(s *Store, parentEPC string, at event.Time) []string {
	t, err := s.Table(TableContainment)
	if err != nil {
		return nil
	}
	var out []string
	t.Scan(func(_ int64, r Row) bool {
		if r[1].Str() == parentEPC && !r[2].Time().After(at) && at.Before(r[3].Time()) {
			out = append(out, r[0].Str())
		}
		return true
	})
	return out
}
