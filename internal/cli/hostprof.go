package cli

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// startHostProfiles begins the host-clock profiles runjob, jobserve, check
// and experiments offer as -cpuprofile and -exectrace (an empty path skips
// one) and returns the function that ends them and writes the -memprofile
// allocation profile, so all three cover exactly the calls made in between —
// a command's run, not its input set-up or report rendering. An error names
// the flag whose file failed.
func startHostProfiles(cpuPath, memPath, tracePath string) (stop func() error, err error) {
	var cpuFile, traceFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, flagErr("-cpuprofile", err)
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, flagErr("-cpuprofile", err)
		}
	}
	if tracePath != "" {
		if traceFile, err = os.Create(tracePath); err == nil {
			if err = trace.Start(traceFile); err != nil {
				traceFile.Close()
			}
		}
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, flagErr("-exectrace", err)
		}
	}
	return func() error {
		var errs []error
		if traceFile != nil {
			trace.Stop()
			errs = append(errs, flagErr("-exectrace", traceFile.Close()))
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			errs = append(errs, flagErr("-cpuprofile", cpuFile.Close()))
		}
		if memPath != "" {
			errs = append(errs, flagErr("-memprofile", writeAllocProfile(memPath)))
		}
		return errors.Join(errs...)
	}, nil
}

// writeAllocProfile writes the process's allocation profile to path.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // flush recent allocations into the profile
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// flagErr prefixes a non-nil err with the flag whose file it concerns.
func flagErr(flag string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", flag, err)
}
