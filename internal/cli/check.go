package cli

import (
	"fmt"
	"io"
	"os"

	"onepass/internal/check"
)

// Check is the check command: the cross-engine differential checker over
// fuzzed tuples. It fails if any tuple fails; -out writes the Markdown
// report, whose runs digest pins every run the sweep made.
func Check(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("check", stderr)
	seeds := fs.Int("seeds", 25, "number of fuzzed tuples to check")
	seed := fs.Int64("seed", 1, "base seed (tuple i uses seed+i)")
	out := fs.String("out", "", "write a Markdown report to this file")
	parallel := fs.Int("parallel-intra", 0,
		"worker goroutines for intra-run data work (0 or 1 = serial; reports are byte-identical either way)")
	quiet := fs.Bool("q", false, "suppress per-tuple progress")
	if err := parse(fs, args); err != nil {
		return err
	}

	progress := stderr
	if *quiet {
		progress = nil
	}
	rep := check.Run(check.Options{Seeds: *seeds, Seed: *seed, Parallelism: *parallel, Log: progress})

	if *out != "" {
		if err := os.WriteFile(*out, []byte(rep.Markdown(*seed)), 0o644); err != nil {
			return fmt.Errorf("check: writing report: %v", err)
		}
	}
	if len(rep.Failures) > 0 {
		for _, f := range rep.Failures {
			fmt.Fprintln(stderr, f)
		}
		return fmt.Errorf("check: %d tuples, %d runs, %d FAILURE(S)", rep.Tuples, rep.Runs, len(rep.Failures))
	}
	fmt.Fprintf(stdout, "check: %d tuples, %d runs, all engines agree, all audits clean\n", rep.Tuples, rep.Runs)
	return nil
}
