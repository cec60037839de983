// Seeded fault tests take their seeds from one environment variable, and a
// failing seed leaves one line that reruns it.

package fault

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// SeedsEnv names the variable that chooses the seeds of every seeded fault
// test: a window "lo-hi" (both ends included) or one seed "n".
const SeedsEnv = "FAULT_SEEDS"

// ArtifactEnv names a file to which a failing seed appends the command line
// that reruns it.
const ArtifactEnv = "FAULT_ARTIFACT"

// maxWindow bounds a window's width, so a typo cannot ask for a run that
// never ends.
const maxWindow = 100000

// Seeds returns the seeds of the window FAULT_SEEDS names, or of def when it
// is unset.
func Seeds(def string) ([]int64, error) {
	w := os.Getenv(SeedsEnv)
	if w == "" {
		w = def
	}
	lo, hi, ok := strings.Cut(w, "-")
	if !ok {
		hi = lo
	}
	a, errLo := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
	b, errHi := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
	if errLo != nil || errHi != nil || a > b || b-a >= maxWindow {
		return nil, fmt.Errorf("%s=%q: want a seed n or a window lo-hi of at most %d seeds", SeedsEnv, w, maxWindow)
	}
	seeds := make([]int64, 0, b-a+1)
	for s := a; s <= b; s++ {
		seeds = append(seeds, s)
	}
	return seeds, nil
}

// Record appends to the FAULT_ARTIFACT file, when one is named, the command
// that reruns seed: go test on pkg with -run test. note says what failed.
func Record(seed int64, pkg, test, note string) error {
	path := os.Getenv(ArtifactEnv)
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s=%d go test %s -run '%s' -v -count=1  # %s\n", SeedsEnv, seed, pkg, test, note)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
