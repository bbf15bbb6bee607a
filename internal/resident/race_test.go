//go:build race

package resident

// The race detector's instrumentation allocates beside the program, so
// under it host allocation figures are not the program's.
func init() { raceEnabled = true }
