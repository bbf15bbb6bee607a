package kv_test

import (
	"fmt"
	"sort"
	"testing"

	"onepass/internal/disk"
	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/sortmerge"
)

// A snapshot merge reads run files through lazily refilled
// sortmerge.Streams beside in-memory segments. MergeGroups must group them
// as the reference merge does, with the same comparisons, while every
// refill suspends the merge.
func TestMergeGroupsOverRunFilesMatchesReference(t *testing.T) {
	big := make([]string, 40000) // several of the run reader's refills
	for i := range big {
		big[i] = fmt.Sprintf("u%07d", i/3)
	}
	half := make([]string, 0, len(big)/2)
	for i := 0; i < len(big); i += 2 {
		half = append(half, big[i]+"-longer-than-the-prefix"[:i%24])
	}
	sort.Strings(half)
	cases := map[string][][]string{
		"refilled-runs":  {big, half, big, half},
		"empty-keys":     {{"", "", "a"}, {""}, {"", "a"}, nil},
		"prefix-ties":    {{"abcdefgh", "abcdefghi"}, {"abcdefgh", "abcdefgh"}, {"abcdefg", "abcdefgi"}},
		"one-run":        {nil, {"a", "a", "b"}},
		"only-empty-run": {nil, nil},
	}
	for name, mc := range cases {
		env := sim.New()
		store := disk.NewStore(disk.NewDevice(env, "scratch", disk.SSD))
		var err error
		env.Go("merge", func(p *sim.Proc) {
			runs := 0
			var scratch kv.MergeScratch
			err = kv.MergeMismatch(mc, func(i int, enc []byte) kv.PairStream {
				if i%2 == 0 {
					return kv.NewSliceStream(enc)
				}
				runs++
				return sortmerge.NewStream(p, sortmerge.WriteRun(p, store, fmt.Sprintf("run-%d", runs), enc))
			}, &scratch)
		})
		env.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
