package lib

// Used has a production reader in cmd/app.
func Used() int { return helper() }

func helper() int { return 1 }

func Planted() {}

// BenchOnly is read only by the benchmark harness.
func BenchOnly() {}

// TestOnly is read only by a test.
func TestOnly() {}

// Recursive names itself, and nothing else names it.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

type T struct{}

// Method has a reader through a selector in cmd/app.
func (T) Method() {}

// String is called through fmt.Stringer.
func (T) String() string { return "t" }
