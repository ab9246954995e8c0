//go:build race

package rpq

func init() { raceEnabled = true }
