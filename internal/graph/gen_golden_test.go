package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"
)

// TestGenerateGoldenHashes pins Generate's output byte for byte: the
// SHA-256 of the JSON encoding of each generated topology must match the
// value recorded before the out-degree bucket walk replaced the per-PE
// stable sort of the previous layer. A changed hash means the RNG stream,
// the parent choice, the edge insertion order or the placement moved.
//
// The hashes are for amd64: the generator's float arithmetic (cost
// jitter, demand, placement loads) goes through math routines whose
// assembly differs per architecture, and other compilers may fuse
// multiply-adds.
func TestGenerateGoldenHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes recorded on amd64, running on %s", runtime.GOARCH)
	}
	wide := DefaultGenConfig(300, 30, 11)
	wide.MaxFanIn, wide.MultiIOFrac = 5, 1
	// Narrow: 8 intermediate PEs with fan-out 2 feed 30 egress PEs, so
	// the egress layer exhausts every parent's fan-out budget and the
	// wired == 0 fallback steals from the least-loaded parent.
	narrow := DefaultGenConfig(40, 6, 5)
	narrow.NumIngress, narrow.NumEgress, narrow.Layers, narrow.MaxFanOut = 2, 30, 1, 2
	cases := []struct {
		name string
		cfg  GenConfig
		want string
	}{
		{"default-2000-200", DefaultGenConfig(2000, 200, 1), "ae915c30eacc202b56171e0eea27604dd53a09981312257452d83d804c21d581"},
		{"default-5000-500", DefaultGenConfig(5000, 500, 1), "12cbc9ee46ac628de5eeb26d2d4d9b7c4a4a901257de9626cae5baef1694c059"},
		{"fanin5-multiio1", wide, "346d62fb93a4bd0c5b34268454ae7e08367c9461dac7ede8cd97962c7f2566a1"},
		{"narrow-fallback", narrow, "b3910e7f9aae28f9478a8e2a28e8be41eee878ad86d4c429480ced27da2176fc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "narrow-fallback" && topo.MaxFanOut() <= tc.cfg.MaxFanOut {
				t.Fatalf("max fan-out %d ≤ %d: the fallback never ran", topo.MaxFanOut(), tc.cfg.MaxFanOut)
			}
			js, err := json.Marshal(topo)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(js)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("topology hash %s, want %s", got, tc.want)
			}
		})
	}
}

// BenchmarkGenerate5k times the paper-scale benchmark's deployment
// generation (5000 PEs / 500 nodes).
func BenchmarkGenerate5k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(DefaultGenConfig(5000, 500, 1)); err != nil {
			b.Fatal(err)
		}
	}
}
