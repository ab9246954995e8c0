package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2.5)) > 1e-9 {
		t.Fatalf("stddev = %f", s.StdDev)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Count != 1 || s.Mean != 7 || s.Median != 7 || s.StdDev != 0 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	values := []float64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10},
		{100, 40},
		{50, 25},
		{25, 17.5},
		{-5, 10},
		{150, 40},
	}
	for _, c := range cases {
		if got := Percentile(values, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %f, want %f", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	// Input must not be mutated (sorted copy).
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", 1)
	tbl.AddRow("beta-long-name", 2.5)
	out := tbl.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	if !strings.Contains(out, "2.50") {
		t.Fatalf("floats should render with 2 decimals:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddRow("x")
	if strings.HasPrefix(tbl.String(), "\n") {
		t.Fatal("no leading blank line expected when title is empty")
	}
}

func TestPropertySummaryBounds(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		values := make([]float64, int(n%50)+1)
		for i := range values {
			values[i] = r.Float64()*200 - 100
		}
		s := Summarize(values)
		if s.Min > s.Mean || s.Mean > s.Max {
			return false
		}
		if s.Median < s.Min || s.Median > s.Max {
			return false
		}
		return s.StdDev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		values := make([]float64, 20)
		for i := range values {
			values[i] = r.Float64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(values, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
