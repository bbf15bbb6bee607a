// Package hostprof takes the host-clock profiles the commands offer as
// -cpuprofile, -memprofile and -exectrace: a CPU profile and a Go execution
// trace of one span of a run, and an allocation profile taken at its end.
package hostprof

import (
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Start begins the host-clock profiles asked for (an empty path skips one)
// and returns the function that ends them: it stops the CPU profile and the
// execution trace and writes the allocation profile, so all three cover
// exactly the calls made in between — a command's run, not its input set-up
// or report rendering. Either call ends the process on an error, naming the
// flag (-cpuprofile, -memprofile or -exectrace) whose file failed.
func Start(cpuPath, memPath, tracePath string) (stop func()) {
	var cpuFile, traceFile *os.File
	if cpuPath != "" {
		var err error
		if cpuFile, err = os.Create(cpuPath); err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
	}
	if tracePath != "" {
		var err error
		if traceFile, err = os.Create(tracePath); err != nil {
			log.Fatalf("-exectrace: %v", err)
		}
		if err := trace.Start(traceFile); err != nil {
			log.Fatalf("-exectrace: %v", err)
		}
	}
	return func() {
		if traceFile != nil {
			trace.Stop()
			if err := traceFile.Close(); err != nil {
				log.Fatalf("-exectrace: %v", err)
			}
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				log.Fatalf("-cpuprofile: %v", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				log.Fatalf("-memprofile: %v", err)
			}
			runtime.GC() // flush recent allocations into the profile
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatalf("-memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("-memprofile: %v", err)
			}
		}
	}
}
