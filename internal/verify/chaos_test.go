package verify

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"fastinvert/internal/store"
)

// TestChaosFaultMatrix drives every fault kind through the pipeline
// and asserts the chaos invariant: a verified-correct index or a typed
// error, and zero leaked goroutines. Not parallel — goroutine
// accounting needs a quiet process.
func TestChaosFaultMatrix(t *testing.T) {
	cases := []ChaosConfig{
		{Fault: FaultNone},
		{Fault: FaultSlowRead, Delay: 2 * time.Millisecond},
		{Fault: FaultReadError, At: 0},
		{Fault: FaultReadError, At: 1},
		{Fault: FaultParseError, At: 0},
		{Fault: FaultParseError, At: 1},
		{Fault: FaultIndexError, At: 1},
		{Fault: FaultWriteError, At: 0},
		{Fault: FaultWriteError, At: 1},
		{Fault: FaultCancel, At: 0},
		{Fault: FaultCancel, At: 1},
		{Fault: FaultTruncateStored, At: 0},
		{Fault: FaultTruncateStored, At: 1},
		{Fault: FaultTruncateRun},
		{Fault: FaultBitFlipRun, Seed: 11},
		{Fault: FaultBitFlipRun, Seed: 12},
		{Fault: FaultTruncateDict},
		{Fault: FaultGarbageDocmap},
		{Fault: FaultTruncateMerged},
		{Fault: FaultBitFlipMerged, Seed: 11},
		{Fault: FaultBitFlipMerged, Seed: 12},
	}
	for _, chaos := range cases {
		chaos := chaos
		t.Run(chaos.Fault.String()+"/"+itoa(chaos.At), func(t *testing.T) {
			res, err := RunChaos(context.Background(), Config{Seed: 77}, chaos)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Errorf("chaos invariant violated: %s", res)
			}
			// Stage faults must surface the injected sentinel, not a
			// mangled or swallowed error.
			switch chaos.Fault {
			case FaultReadError, FaultParseError, FaultIndexError, FaultWriteError:
				if !errors.Is(res.Err, ErrInjected) {
					t.Errorf("want ErrInjected, got %v", res.Err)
				}
			case FaultCancel:
				if !errors.Is(res.Err, context.Canceled) {
					t.Errorf("want context.Canceled, got %v", res.Err)
				}
			case FaultTruncateStored:
				// The sampler reads heads only; the cut in the tail
				// must be the parse stage's to report.
				if !strings.HasPrefix(res.Err.Error(), "core: decompress file "+itoa(chaos.At)+":") {
					t.Errorf("want the parse stage's refusal of file %d, got %v", chaos.At, res.Err)
				}
			case FaultTruncateRun, FaultBitFlipRun, FaultTruncateDict, FaultGarbageDocmap:
				if !errors.Is(res.Err, store.ErrCorruptIndex) {
					t.Errorf("want ErrCorruptIndex, got %v", res.Err)
				}
			case FaultNone, FaultSlowRead:
				if !res.Correct {
					t.Errorf("benign fault must yield a correct index, got err=%v", res.Err)
				}
			case FaultTruncateMerged, FaultBitFlipMerged:
				// The dedicated audit demands detection AND correct
				// fallback; success means both held.
				if !res.Correct {
					t.Errorf("corrupt merged file must degrade gracefully, got err=%v", res.Err)
				}
			}
		})
	}
}

// TestChaosFaultBeyondEnd injects a stage fault at a file index past
// the corpus: it never fires and the build must complete correctly.
func TestChaosFaultBeyondEnd(t *testing.T) {
	res, err := RunChaos(context.Background(), Config{Seed: 33},
		ChaosConfig{Fault: FaultWriteError, At: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.LeakedGoroutines != 0 {
		t.Errorf("unfired fault should verify correct: %s", res)
	}
}

// TestChaosPositional runs a fault and the control group on a
// positional build, where run files are larger and carry position
// blocks.
func TestChaosPositional(t *testing.T) {
	for _, chaos := range []ChaosConfig{
		{Fault: FaultNone},
		{Fault: FaultBitFlipRun, Seed: 5},
	} {
		res, err := RunChaos(context.Background(),
			Config{Seed: 21, Positional: true}, chaos)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Errorf("positional chaos: %s", res)
		}
	}
}

// TestChaosCanceledParent checks an already-canceled caller context.
func TestChaosCanceledParent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunChaos(ctx, Config{Seed: 5}, ChaosConfig{Fault: FaultNone})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TypedError || !errors.Is(res.Err, context.Canceled) {
		t.Errorf("want context.Canceled, got %s", res)
	}
	if res.LeakedGoroutines != 0 {
		t.Errorf("leaked %d goroutines", res.LeakedGoroutines)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
