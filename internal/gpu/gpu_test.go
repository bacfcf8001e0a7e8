package gpu

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	cfg := TeslaC1060()
	cfg.SMs = 4
	cfg.DeviceMemBytes = 16 << 20
	return cfg
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewDevice(Config{}); err == nil {
		t.Error("zero config must be rejected")
	}
	if _, err := NewDevice(TeslaC1060()); err != nil {
		t.Errorf("TeslaC1060 config invalid: %v", err)
	}
}

func TestMallocAndCopy(t *testing.T) {
	d := MustDevice(testConfig())
	p := d.Malloc(128)
	q := d.Malloc(64)
	if p == q {
		t.Fatal("allocations overlap")
	}
	src := make([]byte, 128)
	for i := range src {
		src[i] = byte(i)
	}
	sec := d.CopyHtoD(p, src)
	if sec <= 0 {
		t.Error("HtoD must take simulated time")
	}
	dst := make([]byte, 128)
	d.CopyDtoH(dst, p)
	for i := range dst {
		if dst[i] != byte(i) {
			t.Fatalf("byte %d = %d", i, dst[i])
		}
	}
	st := d.Stats()
	if st.HtoDBytes != 128 || st.DtoHBytes != 128 {
		t.Errorf("transfer stats = %d/%d, want 128/128", st.HtoDBytes, st.DtoHBytes)
	}
}

func TestResetZeroesAndReuses(t *testing.T) {
	d := MustDevice(testConfig())
	p := d.Malloc(16)
	d.CopyHtoD(p, []byte{1, 2, 3, 4})
	d.Reset()
	if d.Allocated() != 0 {
		t.Fatal("Reset must release allocations")
	}
	p2 := d.Malloc(16)
	buf := make([]byte, 4)
	d.CopyDtoH(buf, p2)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("memory not zeroed after Reset")
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := MustDevice(testConfig())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range copy must panic")
		}
	}()
	d.CopyHtoD(Ptr(d.cfg.DeviceMemBytes-4), make([]byte, 8))
}

func TestTransientRegion(t *testing.T) {
	d := MustDevice(testConfig())
	persistent := d.Malloc(64)
	tp := d.MallocTransient(128)
	if int64(tp) < d.Allocated() {
		t.Fatal("transient allocation overlaps persistent region")
	}
	d.CopyHtoD(tp, []byte{9, 9, 9})
	if d.TransientBytes() != 128 {
		t.Errorf("TransientBytes = %d, want 128", d.TransientBytes())
	}
	d.FreeTransients()
	if d.TransientBytes() != 0 {
		t.Error("FreeTransients did not release")
	}
	// Persistent data survives transient churn; region is re-zeroed
	// on reuse.
	d.CopyHtoD(persistent, []byte{1})
	tp2 := d.MallocTransient(128)
	buf := make([]byte, 3)
	d.CopyDtoH(buf, tp2)
	if buf[0] != 0 || buf[1] != 0 || buf[2] != 0 {
		t.Error("transient region not zeroed on reuse")
	}
}

func TestMallocExhaustionPanics(t *testing.T) {
	cfg := testConfig()
	cfg.DeviceMemBytes = 1 << 10
	d := MustDevice(cfg)
	defer func() {
		if recover() == nil {
			t.Error("exhausted device must panic like cudaMalloc failure")
		}
	}()
	d.Malloc(2 << 10)
}

func TestLaunchExecutesAllBlocks(t *testing.T) {
	d := MustDevice(testConfig())
	var ran int64
	st := d.Launch(100, func(b *Block) {
		atomic.AddInt64(&ran, 1)
		b.ChargeInstr(10)
	})
	if ran != 100 || st.Blocks != 100 {
		t.Fatalf("ran %d blocks, stats %d, want 100", ran, st.Blocks)
	}
	if st.TotalCycles != 100*10*d.cfg.InstrCycles {
		t.Errorf("TotalCycles = %d", st.TotalCycles)
	}
	if st.SimSeconds <= 0 {
		t.Error("simulated time must be positive")
	}
	if st.MaxSMCycles > st.TotalCycles {
		t.Errorf("critical path %d exceeds total %d", st.MaxSMCycles, st.TotalCycles)
	}
}

// TestLaunchSpreadsOverSMs pins the list schedule: blocks start in
// index order on the SM whose simulated clock is lowest (ties to the
// lowest SM), whatever the host's core count.
func TestLaunchSpreadsOverSMs(t *testing.T) {
	d := MustDevice(testConfig()) // 4 SMs
	st := d.Launch(100, func(b *Block) { b.ChargeInstr(100) })
	if want := 25 * 100 * d.cfg.InstrCycles; st.MaxSMCycles != want {
		t.Errorf("100 equal blocks on 4 SMs: MaxSMCycles %d, want %d", st.MaxSMCycles, want)
	}

	// Instructions 5 3 3 2 2 2 1 land on SMs 0 1 2 3 3 1 2, whose
	// clocks end at 5 5 4 4 instructions.
	instr := []int64{5, 3, 3, 2, 2, 2, 1}
	st = d.Launch(len(instr), func(b *Block) { b.ChargeInstr(instr[b.BlockIdx]) })
	if want := 5 * d.cfg.InstrCycles; st.MaxSMCycles != want {
		t.Errorf("uneven blocks: MaxSMCycles %d, want %d", st.MaxSMCycles, want)
	}
	if want := 18 * d.cfg.InstrCycles; st.TotalCycles != want {
		t.Errorf("uneven blocks: TotalCycles %d, want %d", st.TotalCycles, want)
	}
}

func TestLaunchSharedMemoryIsolated(t *testing.T) {
	d := MustDevice(testConfig())
	p := d.Malloc(4 * 64)
	d.Launch(64, func(b *Block) {
		// Each block writes its index into shared then stores to its
		// own device slot; cross-block leakage would corrupt values.
		b.PutSharedI32(0, int32(b.BlockIdx))
		b.StoreGlobal(p+Ptr(4*b.BlockIdx), 0, 4)
	})
	out := make([]byte, 4*64)
	d.CopyDtoH(out, p)
	for i := 0; i < 64; i++ {
		got := int32(out[4*i]) | int32(out[4*i+1])<<8 | int32(out[4*i+2])<<16 | int32(out[4*i+3])<<24
		if got != int32(i) {
			t.Fatalf("block %d wrote %d", i, got)
		}
	}
}

func TestCoalescedTransactionCount(t *testing.T) {
	d := MustDevice(testConfig())
	p := d.Malloc(1024)
	st := d.Launch(1, func(b *Block) {
		b.LoadShared(0, p, 512) // aligned: 512/64 = 8 segments
	})
	if st.GlobalTxns != 8 {
		t.Errorf("aligned 512B load = %d txns, want 8", st.GlobalTxns)
	}
	st = d.Launch(1, func(b *Block) {
		b.LoadShared(0, p+32, 512) // misaligned: spans 9 segments
	})
	if st.GlobalTxns != 9 {
		t.Errorf("misaligned 512B load = %d txns, want 9", st.GlobalTxns)
	}
}

func TestScatteredCostsMore(t *testing.T) {
	d := MustDevice(testConfig())
	p := d.Malloc(512)
	co := d.Launch(1, func(b *Block) { b.LoadShared(0, p, 512) })
	buf := make([]byte, 512)
	sc := d.Launch(1, func(b *Block) { b.GlobalReadScattered(buf, p) })
	if sc.GlobalTxns <= co.GlobalTxns {
		t.Errorf("scattered %d txns not > coalesced %d", sc.GlobalTxns, co.GlobalTxns)
	}
	if sc.MaxSMCycles <= co.MaxSMCycles {
		t.Errorf("scattered %d cycles not > coalesced %d", sc.MaxSMCycles, co.MaxSMCycles)
	}
}

func TestBankConflictAccounting(t *testing.T) {
	d := MustDevice(testConfig())
	d.Malloc(4)
	d.Launch(1, func(b *Block) {
		// Conflict-free: lanes hit distinct banks.
		words := make([]int, 32)
		for i := range words {
			words[i] = i
		}
		if deg := b.ChargeSharedAccess(words); deg != 1 {
			t.Errorf("distinct banks: degree %d, want 1", deg)
		}
		// Broadcast: all lanes read the same word — still conflict-free.
		for i := range words {
			words[i] = 5
		}
		if deg := b.ChargeSharedAccess(words); deg != 1 {
			t.Errorf("broadcast: degree %d, want 1", deg)
		}
		// Worst case: all lanes hit bank 0 with distinct addresses.
		for i := range words {
			words[i] = i * 16
		}
		if deg := b.ChargeSharedAccess(words); deg != 16 {
			t.Errorf("same-bank distinct: degree %d, want 16", deg)
		}
	})
	if d.Stats().BankConflicts == 0 {
		t.Error("conflicts not recorded")
	}
}

func TestParallelMinMatchesLinear(t *testing.T) {
	d := MustDevice(testConfig())
	f := func(raw []int32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		var got int32
		var gotLane int
		d.Launch(1, func(b *Block) {
			got, gotLane = b.ParallelMin(raw)
		})
		want := raw[0]
		for _, v := range raw {
			if v < want {
				want = v
			}
		}
		return got == want && raw[gotLane] == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivergenceAccounting(t *testing.T) {
	d := MustDevice(testConfig())
	st := d.Launch(1, func(b *Block) {
		before := b.Cycles()
		b.ChargeDivergentLanes(0) // no-op
		if b.Cycles() != before {
			t.Error("zero divergence must not charge")
		}
		b.ChargeDivergentLanes(5)
		if b.Cycles() <= before {
			t.Error("divergence must charge cycles")
		}
	})
	if st.Divergent != 5 {
		t.Errorf("launch divergence = %d, want 5", st.Divergent)
	}
	if d.Stats().DivergentLanes != 5 {
		t.Errorf("device divergence = %d, want 5", d.Stats().DivergentLanes)
	}
}

func TestSharedI32RoundTrip(t *testing.T) {
	d := MustDevice(testConfig())
	d.Launch(1, func(b *Block) {
		b.PutSharedI32(40, -123456789)
		if v := b.SharedI32(40); v != -123456789 {
			t.Errorf("SharedI32 = %d", v)
		}
	})
}

func TestLoadSharedBoundsPanic(t *testing.T) {
	d := MustDevice(testConfig())
	p := d.Malloc(64)
	defer func() {
		if recover() == nil {
			t.Error("shared overflow must panic")
		}
	}()
	d.Launch(1, func(b *Block) {
		b.LoadShared(len(b.Shared)-8, p, 64)
	})
}

func BenchmarkKernelNodeLoad(b *testing.B) {
	cfg := TeslaC1060()
	cfg.DeviceMemBytes = 64 << 20
	d := MustDevice(cfg)
	p := d.Malloc(512 * 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Launch(32, func(blk *Block) {
			off := Ptr((blk.BlockIdx % 1024) * 512)
			blk.LoadShared(0, p+off, 512)
		})
	}
}

// TestTrimTransientsBoundsResident: FreeTransients (per run) must keep
// the backing chunks materialized so runs reuse them without
// re-allocation, while TrimTransients (build end) drops the chunks
// above the persistent break, so a long-lived engine's resident memory
// between builds is bounded by its persistent footprint — with
// persistent data surviving and reused transient memory still reading
// as zeros.
func TestTrimTransientsBoundsResident(t *testing.T) {
	cfg := testConfig()
	cfg.DeviceMemBytes = 64 << 20
	d := MustDevice(cfg)
	persistent := d.Malloc(1 << 10)
	d.CopyHtoD(persistent, []byte{7, 8, 9})

	payload := make([]byte, 16<<20)
	for i := range payload {
		payload[i] = 0xaa
	}
	var resident int64
	for run := 0; run < 5; run++ {
		tp := d.MallocTransient(len(payload))
		buf := make([]byte, 8)
		d.CopyDtoH(buf, tp)
		for _, b := range buf {
			if b != 0 {
				t.Fatal("transient region not zero on allocation")
			}
		}
		d.CopyHtoD(tp, payload)
		d.FreeTransients()
		if resident == 0 {
			resident = d.ResidentBytes()
			if resident < int64(len(payload)) {
				t.Fatalf("resident %d bytes after first run, want >= payload (chunks must stay for reuse)", resident)
			}
		} else if got := d.ResidentBytes(); got != resident {
			t.Fatalf("run %d: resident %d bytes, first run left %d (FreeTransients must not churn chunks)", run, got, resident)
		}
	}
	// Build end: only the chunk holding the persistent kilobyte may
	// survive the trim.
	d.TrimTransients()
	if got := d.ResidentBytes(); got > chunkSize {
		t.Fatalf("resident %d bytes after TrimTransients, want <= one chunk (%d)", got, chunkSize)
	}
	buf := make([]byte, 3)
	d.CopyDtoH(buf, persistent)
	if buf[0] != 7 || buf[1] != 8 || buf[2] != 9 {
		t.Fatal("persistent data lost by transient trim")
	}
	// A post-trim allocation must see zeroed memory again.
	tp := d.MallocTransient(1 << 20)
	d.CopyDtoH(buf, tp)
	if buf[0] != 0 || buf[1] != 0 || buf[2] != 0 {
		t.Fatal("post-trim transient region not zero")
	}
	d.Reset()
	if d.ResidentBytes() != 0 {
		t.Fatal("Reset must drop all materialized chunks")
	}
}

// TestReplayedSharedAccessEqualsFresh: a measured charge replayed must
// leave a block's counters exactly where a fresh ChargeSharedAccess of
// the same lane words leaves them, for every prefix of a 31-word
// pattern, including bank counts and warp sizes under which consecutive
// words do conflict.
func TestReplayedSharedAccessEqualsFresh(t *testing.T) {
	patterns := map[string]func(i int) int{
		"stride-1":  func(i int) int { return 8 + i },
		"stride-2":  func(i int) int { return 2 * i },
		"stride-16": func(i int) int { return 16 * i },
		"broadcast": func(int) int { return 5 },
	}
	for _, shape := range []struct{ banks, warp int }{
		{16, 32}, {32, 32}, {4, 32}, {3, 32}, {1, 32}, {16, 8}, {2, 8}, {16, 1},
	} {
		cfg := testConfig()
		cfg.SharedBanks, cfg.WarpSize = shape.banks, shape.warp
		d := MustDevice(cfg)
		conflicts := int64(0) // of the stride-1 pattern, the kernel's own
		d.Launch(1, func(b *Block) {
			for name, at := range patterns {
				var words [31]int
				for i := range words {
					words[i] = at(i)
				}
				for n := 1; n <= len(words); n++ {
					b.ctr = blockCounters{}
					charge := b.MeasureSharedAccess(words[:n])
					if b.ctr != (blockCounters{}) {
						t.Fatalf("banks %d warp %d %s[:%d]: measuring charged %+v",
							shape.banks, shape.warp, name, n, b.ctr)
					}
					b.ReplaySharedAccess(charge)
					replayed := b.ctr
					b.ctr = blockCounters{}
					b.ChargeSharedAccess(words[:n])
					if replayed != b.ctr {
						t.Errorf("banks %d warp %d %s[:%d]: replayed %+v, fresh %+v",
							shape.banks, shape.warp, name, n, replayed, b.ctr)
					}
					if name == "stride-1" {
						conflicts += b.ctr.conflicts
					}
				}
			}
		})
		if shape.banks < 16 && shape.warp > 2 && conflicts == 0 {
			t.Errorf("banks %d warp %d: consecutive words never conflicted; the property was not exercised", shape.banks, shape.warp)
		}
	}
}
