// Package cli holds the bodies of the commands runjob, jobserve, check and
// experiments.
// Each is one function that parses its own flags from an argument list,
// writes to the streams it is handed and returns an error instead of ending
// the process, so a test that calls it runs exactly what the binary runs;
// each command's main is one call to Main.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// Command is a command's body: it runs over args (without the program
// name), writes its report to stdout and its diagnostics to stderr.
type Command func(args []string, stdout, stderr io.Writer) error

// errUsage marks a command line the command's flag set could not parse. The
// flag package has already printed the complaint and the usage to stderr.
var errUsage = errors.New("usage")

// ExitCode maps a command's error to its exit status: 0 for success and for
// -h (flag.ErrHelp), 2 for a command line that does not parse, and 1 for
// anything else — a bad flag value, a failed run or audit, a diverged delta.
func ExitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	return 1
}

// Main runs cmd over the process's arguments and standard streams, prints
// an error that the flag package has not already printed, and exits with
// its ExitCode.
func Main(cmd Command) {
	err := cmd(os.Args[1:], os.Stdout, os.Stderr)
	code := ExitCode(err)
	if code == 1 {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}

// newFlagSet returns a flag set that reports to stderr and leaves exiting
// to Main.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args into fs; an error other than flag.ErrHelp comes back
// wrapping errUsage.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return fmt.Errorf("%w: %v", errUsage, err)
}
