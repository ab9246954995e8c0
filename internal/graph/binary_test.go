package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// buildRandom constructs a graph with random edges, isolated nodes and
// attributes — every feature the text format preserves.
func buildRandom(t testing.TB, rng *rand.Rand) *Graph {
	t.Helper()
	g := New()
	n := 2 + rng.Intn(40)
	labels := []Label{"tram", "bus", "cinema", "x"}
	for i := 0; i < n; i++ {
		g.MustAddNode(NodeID(fmt.Sprintf("n%02d", i)))
	}
	edges := rng.Intn(4 * n)
	for i := 0; i < edges; i++ {
		from := NodeID(fmt.Sprintf("n%02d", rng.Intn(n)))
		to := NodeID(fmt.Sprintf("n%02d", rng.Intn(n)))
		g.MustAddEdge(from, labels[rng.Intn(len(labels))], to)
	}
	for i := 0; i < rng.Intn(5); i++ {
		id := NodeID(fmt.Sprintf("n%02d", rng.Intn(n)))
		if err := g.SetAttr(id, fmt.Sprintf("k%d", rng.Intn(3)), fmt.Sprintf("v%d", rng.Intn(9))); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		g := buildRandom(t, rng)
		data := g.EncodeBinary()
		if !IsBinaryGraph(data) {
			t.Fatal("encoded payload does not carry the binary magic")
		}
		got, err := ParseBinary(data)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Text() != g.Text() {
			t.Fatalf("case %d: binary round-trip changed the graph\n got %q\nwant %q", i, got.Text(), g.Text())
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	g, err := ParseText("node iso\nnode a kind=town\nedge a tram b\nedge b cinema c\n")
	if err != nil {
		t.Fatal(err)
	}
	data := g.EncodeBinary()
	if _, err := ParseBinary(data[:len(data)-1]); err == nil {
		t.Fatal("truncated payload must fail to parse")
	}
	if _, err := ParseBinary(append(append([]byte{}, data...), 0x7)); err == nil {
		t.Fatal("trailing bytes must fail to parse")
	}
	if _, err := ParseBinary([]byte("not a graph")); err == nil {
		t.Fatal("foreign payload must fail to parse")
	}
	// Every prefix fails, even with the rest of the encoding still behind
	// it in the buffer (a string length read at the cut must not reach
	// past the prefix's end).
	for k := 0; k < len(data); k++ {
		if _, err := ParseBinary(data[:k]); err == nil {
			t.Fatalf("prefix of %d bytes parsed", k)
		}
	}
	// Flip every single byte in turn: the decoder must stay bounds-safe —
	// no panic, no hang — under arbitrary corruption. (Silent wrong-graph
	// corruption is the store's CRC layer's job to catch, not the
	// decoder's.)
	for i := len(binaryMagic); i < len(data); i++ {
		mut := append([]byte{}, data...)
		mut[i] ^= 0xff
		if g2, err := ParseBinary(mut); err == nil {
			_ = g2.Validate() // a clean parse must still be a consistent graph
		}
	}
}

func TestBinaryEmptyAndSingleton(t *testing.T) {
	for _, text := range []string{"", "node only\n"} {
		g, err := ParseText(text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseBinary(g.EncodeBinary())
		if err != nil {
			t.Fatal(err)
		}
		if got.Text() != g.Text() {
			t.Fatalf("round-trip of %q changed the graph", text)
		}
	}
}

// FuzzParseBinary feeds arbitrary bytes to the graph payload decoder
// that graph snapshots are read with. It must never panic or hang, and a
// payload it accepts must be a consistent graph that survives its own
// round trip. The seeds are valid, torn and bit-flipped encodings.
func FuzzParseBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		data := buildRandom(f, rng).EncodeBinary()
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0xff
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(flipped)
	}
	f.Add([]byte("not a graph"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseBinary(data)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted an inconsistent graph: %v", err)
		}
		again, err := ParseBinary(g.EncodeBinary())
		if err != nil || again.Text() != g.Text() {
			t.Fatalf("accepted graph does not round-trip: %v", err)
		}
	})
}

func BenchmarkBinaryDecode(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "edge n%04d tram n%04d\nedge n%04d bus n%04d\n", i, (i+1)%2000, i, (i+7)%2000)
	}
	g, err := ParseText(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	data := g.EncodeBinary()
	text := g.Text()
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ParseBinary(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ParseText(text); err != nil {
				b.Fatal(err)
			}
		}
	})
}
