package gpuindexer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"fastinvert/internal/corpus"
	"fastinvert/internal/gpu"
	"fastinvert/internal/parser"
)

// goldenCost is everything the cost model reports for one indexed
// corpus.
type goldenCost struct {
	launch     gpu.LaunchStats // summed over runs; SimSeconds left zero
	simSeconds float64         // Device.Stats().SimSeconds: kernels and PCIe copies
	dictionary string          // first 8 bytes of a SHA-256 over ExportDictionary
}

// indexGolden indexes three generated ClueWeb-like files, one run per
// file, on a device with sms SMs. On one SM every block runs back to
// back, so MaxSMCycles is TotalCycles and Blocks the collection count:
// the schedule (Blocks, MaxSMCycles) is summed only when sms > 1.
func indexGolden(t *testing.T, cfg Config, positional bool, sms int) goldenCost {
	t.Helper()
	devCfg := gpu.TeslaC1060()
	devCfg.SMs = sms
	devCfg.DeviceMemBytes = 64 << 20
	dev := gpu.MustDevice(devCfg)
	ix := New(dev, cfg)

	gen := corpus.NewGenerator(corpus.ClueWeb09(1))
	psr := parser.New(nil)
	psr.Positional = positional
	var got goldenCost
	docBase := uint32(0)
	for f := 0; f < 3; f++ {
		blk := parser.NewBlock(0)
		docs := corpus.SplitDocs(gen.GeneratePlain(f))
		for d, doc := range docs {
			psr.ParseDoc(uint32(d), doc, blk)
		}
		groups := groupsOf(blk)
		sort.Slice(groups, func(i, j int) bool { return groups[i].Index < groups[j].Index })
		rs, err := ix.IndexRun(groups, docBase)
		if err != nil {
			t.Fatal(err)
		}
		got.launch.Instructions += rs.Launch.Instructions
		got.launch.GlobalTxns += rs.Launch.GlobalTxns
		got.launch.GlobalBytes += rs.Launch.GlobalBytes
		got.launch.SharedAcc += rs.Launch.SharedAcc
		got.launch.Conflicts += rs.Launch.Conflicts
		got.launch.Divergent += rs.Launch.Divergent
		got.launch.TotalCycles += rs.Launch.TotalCycles
		if sms > 1 {
			got.launch.Blocks += rs.Launch.Blocks
			got.launch.MaxSMCycles += rs.Launch.MaxSMCycles
		}
		ix.ResetRunPostings()
		docBase += uint32(len(docs))
	}
	got.simSeconds = dev.Stats().SimSeconds

	h := sha256.New()
	var word [4]byte
	ix.ExportDictionary(func(coll int, stripped []byte, slot int32) bool {
		binary.LittleEndian.PutUint32(word[:], uint32(coll))
		h.Write(word[:])
		binary.LittleEndian.PutUint32(word[:], uint32(len(stripped)))
		h.Write(word[:])
		h.Write(stripped)
		binary.LittleEndian.PutUint32(word[:], uint32(slot))
		h.Write(word[:])
		return true
	})
	got.dictionary = hex.EncodeToString(h.Sum(nil)[:8])
	return got
}

// TestModeledCostGolden pins the modeled cost of the kernel to values
// recorded before the host-side search loop was rewritten (commit
// 676edda): a change that makes the simulator cheaper to run must not
// move a single charged instruction, transaction or cycle. The cases
// run on one SM except default-device, which pins the list schedule
// over the C1060's 30.
func TestModeledCostGolden(t *testing.T) {
	cases := []struct {
		name       string
		cfg        Config
		positional bool
		sms        int // 0 means one
		want       goldenCost
	}{
		{name: "string-cache", want: goldenCost{
			launch: gpu.LaunchStats{Instructions: 680695, GlobalTxns: 273565, GlobalBytes: 9287579,
				SharedAcc: 94932, Conflicts: 0, Divergent: 47857, TotalCycles: 23041748},
			simSeconds: 0.018029204543209876, dictionary: "c3ae8a1543e7525d"}},
		{name: "no-string-cache", cfg: Config{NoStringCache: true}, want: goldenCost{
			launch: gpu.LaunchStats{Instructions: 680695, GlobalTxns: 1099832, GlobalBytes: 11448157,
				SharedAcc: 94932, Conflicts: 0, Divergent: 47857, TotalCycles: 130485895},
			simSeconds: 0.10093363895679013, dictionary: "c3ae8a1543e7525d"}},
		{name: "positional", positional: true, want: goldenCost{
			launch: gpu.LaunchStats{Instructions: 680695, GlobalTxns: 280798, GlobalBytes: 9706335,
				SharedAcc: 94932, Conflicts: 0, Divergent: 47857, TotalCycles: 23234351},
			simSeconds: 0.018253955423681256, dictionary: "c3ae8a1543e7525d"}},
		{name: "default-device", sms: gpu.TeslaC1060().SMs, want: goldenCost{
			launch: gpu.LaunchStats{Blocks: 4709, Instructions: 680695, GlobalTxns: 273565, GlobalBytes: 9287579,
				SharedAcc: 94932, Conflicts: 0, Divergent: 47857, MaxSMCycles: 5200246, TotalCycles: 23041748},
			simSeconds: 0.00426261349382716, dictionary: "c3ae8a1543e7525d"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := indexGolden(t, tc.cfg, tc.positional, max(tc.sms, 1))
			if got != tc.want {
				t.Errorf("modeled cost moved:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
