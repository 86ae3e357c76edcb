package tagtable_test

import (
	"bytes"
	"testing"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/tagtable"
)

// fuzzGeometry is the table every fuzz input is restored into: 4 sets of
// 3 ways, 4-bit tags and 2-bit counters.
func fuzzGeometry() *tagtable.Table { return tagtable.New(2, 3, 4, 8, true) }

// snapshot encodes t's state.
func snapshot(t *tagtable.Table) []byte {
	enc := checkpoint.NewEncoder()
	t.Snapshot(enc)
	return bytes.Clone(enc.Bytes())
}

// drive runs a fixed mix of lookups, updates and allocations over t.
func drive(t *tagtable.Table, n int) {
	for i := 0; i < n; i++ {
		addr, hist, taken := uint64(i%7)*4, uint64(i*i)%37, i%3 == 0
		if _, hit := t.Lookup(addr, hist); hit {
			t.Update(addr, hist, taken)
		} else {
			t.Allocate(addr, hist, taken)
		}
	}
}

// FuzzTagTableRestore feeds arbitrary bytes to Table.Restore. The
// decoder's contract on untrusted input: never panic, and accept only a
// state the table could hold, so an accepted snapshot re-encodes to
// exactly the bytes it was read from (an invalid entry carrying a tag,
// counter or timestamp would not). The checked-in corpus holds valid
// snapshots (empty, partly filled, full) beside corrupt ones.
func FuzzTagTableRestore(f *testing.F) {
	tab := fuzzGeometry()
	f.Add(snapshot(tab))
	drive(tab, 5)
	f.Add(snapshot(tab))
	drive(tab, 200)
	f.Add(snapshot(tab))
	f.Add([]byte{})
	f.Add([]byte("\x08tagtable\x0c\x03\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tab := fuzzGeometry()
		dec := checkpoint.NewDecoder(data)
		if err := tab.Restore(dec); err != nil {
			if !bytes.Equal(snapshot(tab), snapshot(fuzzGeometry())) {
				t.Fatalf("a rejected restore (%v) changed the table", err)
			}
			return
		}
		read := data[:len(data)-dec.Remaining()]
		if got := snapshot(tab); !bytes.Equal(got, read) {
			t.Fatalf("accepted snapshot re-encodes differently:\n read % x\n  got % x", read, got)
		}
		// Operating from any accepted state keeps it restorable.
		drive(tab, 50)
		if err := fuzzGeometry().Restore(checkpoint.NewDecoder(snapshot(tab))); err != nil {
			t.Fatalf("state driven from an accepted snapshot no longer restores: %v", err)
		}
	})
}
