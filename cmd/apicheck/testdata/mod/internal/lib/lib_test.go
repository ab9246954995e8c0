package lib

import "testing"

func TestOnlyRuns(t *testing.T) { TestOnly() }
