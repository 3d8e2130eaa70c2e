package sim

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeCheckpoint hammers the checkpoint decoder with arbitrary
// bytes. The decoder must never panic or over-allocate, and anything it
// does accept must re-encode and re-decode to the same value (a decoded
// checkpoint is always a well-formed one). An accepted shard checkpoint,
// merged on its own, must yield a result or an error, never a panic: the
// coordinator merges decoded shard responses directly.
func FuzzDecodeCheckpoint(f *testing.F) {
	// Seed from two scenario families: "storage" covers the battery and
	// demand-meter sections, "batch" covers the scheduler queue sections
	// (non-empty queues with partial progress at step 7).
	for _, name := range []string{"storage", "batch"} {
		sc := engineScenarios(f)[name]
		for _, k := range []int{0, 7} {
			_, cp := checkpointAt(f, clonePolicy(f, sc), k)
			var buf bytes.Buffer
			if err := cp.Encode(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
			f.Add(buf.Bytes()[:buf.Len()/2])
			mutated := append([]byte(nil), buf.Bytes()...)
			mutated[len(mutated)/3] ^= 0xff
			f.Add(mutated)
		}
	}
	f.Add(orphanBatteriesCheckpoint(f))
	f.Add([]byte("powerroute-checkpoint v1\n{}\n"))
	f.Add([]byte("powerroute-checkpoint v2\n{}\n"))
	f.Add([]byte("powerroute-checkpoint v3\n"))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			t.Fatalf("accepted checkpoint fails to re-encode: %v", err)
		}
		again, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint fails to decode: %v", err)
		}
		if !reflect.DeepEqual(cp, again) {
			t.Fatal("decode(encode(decode(data))) != decode(data)")
		}
		if cp.ShardOf != "" {
			_, _ = MergeCheckpoints([]*Checkpoint{cp})
		}
	})
}

// orphanBatteriesCheckpoint encodes a shard checkpoint that carries
// battery snapshots without the storage ledgers that belong to them,
// renumbered to fleet positions 0..n-1 so that it merges on its own.
func orphanBatteriesCheckpoint(t testing.TB) []byte {
	engines, _ := shardEngines(t, allSectionsScenario(t), 7)
	cp, err := engines[0].Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	partialComponents["battery snapshots"](cp)
	for j := range cp.ClusterIndex {
		cp.ClusterIndex[j] = j
	}
	for s := range cp.StateIndex {
		cp.StateIndex[s] = s
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
