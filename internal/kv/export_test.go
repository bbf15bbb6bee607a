package kv

// MergeMismatch exposes the merge oracle to the external tests, which open
// streams from packages that import this one.
func MergeMismatch(mc [][]string, open func(i int, enc []byte) PairStream, scratch *MergeScratch) error {
	return mergeMismatch(mc, open, scratch)
}
