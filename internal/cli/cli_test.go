package cli

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestExitCodes: -h, a command line that does not parse and a flag value
// the command rejects come back as the errors Main maps to 0, 2 and 1.
func TestExitCodes(t *testing.T) {
	commands := map[string]Command{"runjob": Runjob, "jobserve": Jobserve, "check": Check}
	for _, tc := range []struct {
		command string
		args    []string
		code    int
	}{
		{"runjob", []string{"-h"}, 0},
		{"jobserve", []string{"-h"}, 0},
		{"check", []string{"-h"}, 0},
		{"runjob", []string{"-nodes", "ten"}, 2},
		{"jobserve", []string{"-no-such-flag"}, 2},
		{"check", []string{"-seeds", "many"}, 2},
		{"runjob", []string{"-size", "huge"}, 1},
		{"runjob", []string{"-engine", "no-such-engine"}, 1},
		{"jobserve", []string{"-tenant", "weight=2"}, 1},
	} {
		var stderr bytes.Buffer
		err := commands[tc.command](tc.args, io.Discard, &stderr)
		if got := ExitCode(err); got != tc.code {
			t.Errorf("%s %s: error %v exits %d, want %d", tc.command, strings.Join(tc.args, " "), err, got, tc.code)
		}
		if tc.code != 1 && stderr.Len() == 0 {
			t.Errorf("%s %s: printed no usage", tc.command, strings.Join(tc.args, " "))
		}
	}
}

// TestDeltaRejectsFlagsItIgnores: a -delta run prints its comparison report
// and nothing else, so every flag it could not honour is an error, returned
// before anything runs.
func TestDeltaRejectsFlagsItIgnores(t *testing.T) {
	for _, extra := range [][]string{
		{"-json"},
		{"-trace", "t.json"},
		{"-gantt"},
		{"-profile"},
		{"-profile-json", "p.json"},
		{"-progress"},
		{"-stream", "2"},
		{"-fault", "fail@0.05s:n3"},
		{"-fault-seed", "3"},
	} {
		args := append([]string{"-workload", "per-user-count", "-size", "1MB", "-delta", "0.05"}, extra...)
		var stdout bytes.Buffer
		err := Runjob(args, &stdout, io.Discard)
		if err == nil || ExitCode(err) != 1 || !strings.Contains(err.Error(), extra[0]) {
			t.Errorf("runjob %s: error %v, want one naming %s", strings.Join(args, " "), err, extra[0])
		}
		if stdout.Len() > 0 {
			t.Errorf("runjob %s ran and printed %q", strings.Join(args, " "), stdout.String())
		}
	}
}
