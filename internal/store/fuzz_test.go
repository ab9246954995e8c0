package store

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// Fuzz targets for the decoders that read the store's on-disk bytes. Each
// is seeded with valid encodings plus torn (cut in half) and bit-flipped
// copies of them; `go test` runs the seeds, `go test -fuzz` explores.

// addDamaged seeds f with data, its first half and a copy with the middle
// byte flipped.
func addDamaged(f *testing.F, data []byte) {
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(flipped)
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the graph snapshot loader:
// it must never panic, and a snapshot it accepts must re-encode to one
// that decodes to the same graph.
func FuzzDecodeSnapshot(f *testing.F) {
	addDamaged(f, encodeSnapshot("demo", dataset.Figure1()))
	addDamaged(f, encodeSnapshot("rand", dataset.Random(dataset.RandomOptions{Nodes: 30, Seed: 7})))
	f.Add([]byte("{\"name\":\"demo\"}\nedge a tram b\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rg, err := decodeSnapshot("fuzz", data)
		if err != nil {
			return
		}
		again, err := decodeSnapshot("fuzz", encodeSnapshot(rg.Name, rg.Graph))
		if err != nil || again.Name != rg.Name || again.Graph.Text() != rg.Graph.Text() {
			t.Fatalf("accepted snapshot does not round-trip: %v", err)
		}
	})
}

// FuzzDecodePayload feeds arbitrary bytes to the wal frame payload
// decoder: it must never panic, and a record, summary or tombstone it
// accepts must re-encode to a payload that decodes the same.
func FuzzDecodePayload(f *testing.F) {
	rec := Record{Seq: 3, Type: "question", Data: []byte(`{"kind":"label","node":"N2"}`)}
	addDamaged(f, encodeRecordPayload(flagData, "s0001", rec))
	addDamaged(f, encodeRecordPayload(flagTerminal, "s0001", Record{Seq: 4, Type: "done"}))
	addDamaged(f, encodeTombstonePayload("s0002"))
	addDamaged(f, encodeSummaryPayload("s0003", []Record{{Seq: 1, Type: "create", Data: []byte(`{}`)}, rec}))
	addDamaged(f, encodeEpochPayload(7))
	f.Fuzz(func(t *testing.T, payload []byte) {
		df, err := decodePayload(payload)
		if err != nil {
			return
		}
		var again []byte
		switch df.flag {
		case flagData, flagTerminal:
			again = encodeRecordPayload(df.flag, df.sid, df.rec)
		case flagTombstone:
			again = encodeTombstonePayload(df.sid)
		case flagSummary:
			again = encodeSummaryPayload(df.sid, df.summary)
		default:
			return // footer and epoch frames have decoders of their own
		}
		df2, err := decodePayload(again)
		if err != nil || !reflect.DeepEqual(df2, df) {
			t.Fatalf("accepted payload does not round-trip: %v\n got  %+v\n want %+v", err, df2, df)
		}
	})
}

// FuzzDecodeIndexPayload feeds arbitrary bytes to the segment index
// footer decoder: it must never panic, and an index it accepts must
// re-encode to one that decodes the same.
func FuzzDecodeIndexPayload(f *testing.F) {
	b := newSegIndexBuilder()
	b.add("s0001", flagData, 8)
	b.add("s0002", flagData, 60)
	b.add("s0001", flagTerminal, 121)
	b.add("s0003", flagTombstone, 180)
	addDamaged(f, encodeIndexPayload(b.entries()))
	f.Fuzz(func(t *testing.T, payload []byte) {
		entries, err := decodeIndexPayload(payload)
		if err != nil {
			return
		}
		again, err := decodeIndexPayload(encodeIndexPayload(entries))
		if err != nil || !reflect.DeepEqual(again, entries) {
			t.Fatalf("accepted index does not round-trip: %v\n got  %+v\n want %+v", err, again, entries)
		}
	})
}
