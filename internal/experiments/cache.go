package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"onepass/internal/engine"
)

// cacheVersion guards the run-cache file format; bump it when runSpec,
// Result serialization, or any simulation behaviour changes in a way that
// invalidates persisted results.
const cacheVersion = 5

// cacheFile is the persisted run cache: every completed run keyed by its
// spec, stamped with the scale it was produced at. Repeated sweeps and CI
// reruns load it to skip completed simulations; the simulator is
// deterministic, so a cached result is bit-identical to re-running.
type cacheFile struct {
	Version int          `json:"version"`
	Scale   Scale        `json:"scale"`
	Runs    []cacheEntry `json:"runs"`
}

type cacheEntry struct {
	Spec   runSpec        `json:"spec"`
	Result *engine.Result `json:"result"`
}

// LoadCache installs previously persisted results into the session's run
// cache. A missing file is not an error (returns 0, nil); a file from a
// different format version or scale is ignored with an error describing
// why, so a stale cache can never corrupt a sweep.
func (s *Session) LoadCache(path string) (int, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var cf cacheFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return 0, fmt.Errorf("experiments: run cache %s: %w", path, err)
	}
	if cf.Version != cacheVersion {
		return 0, fmt.Errorf("experiments: run cache %s has version %d, want %d — ignoring it",
			path, cf.Version, cacheVersion)
	}
	if cf.Scale != s.Scale {
		return 0, fmt.Errorf("experiments: run cache %s was produced at scale %+v, session is %+v — ignoring it",
			path, cf.Scale, s.Scale)
	}
	loaded := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ce := range cf.Runs {
		if ce.Result == nil {
			continue
		}
		if _, ok := s.results[ce.Spec]; ok {
			continue
		}
		e := &runEntry{done: make(chan struct{}), res: ce.Result}
		close(e.done)
		s.results[ce.Spec] = e
		loaded++
	}
	return loaded, nil
}

// SaveCache persists every completed run to path (atomically, via a
// temporary file) so later sweeps can skip them. Entries are sorted by
// their JSON-encoded spec, making the file deterministic for a given set of
// runs. Returns the number of runs written.
func (s *Session) SaveCache(path string) (int, error) {
	s.mu.Lock()
	cf := cacheFile{Version: cacheVersion, Scale: s.Scale}
	for spec, e := range s.results {
		select {
		case <-e.done:
		default:
			continue // still in flight
		}
		if e.res == nil {
			continue // run panicked; nothing to persist
		}
		cf.Runs = append(cf.Runs, cacheEntry{Spec: spec, Result: e.res})
	}
	s.mu.Unlock()

	keys := make(map[runSpec]string, len(cf.Runs))
	for _, ce := range cf.Runs {
		b, err := json.Marshal(ce.Spec)
		if err != nil {
			return 0, err
		}
		keys[ce.Spec] = string(b)
	}
	slices.SortFunc(cf.Runs, func(a, b cacheEntry) int { return strings.Compare(keys[a.Spec], keys[b.Spec]) })

	data, err := json.MarshalIndent(&cf, "", " ")
	if err != nil {
		return 0, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	return len(cf.Runs), nil
}
