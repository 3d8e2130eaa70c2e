package sim

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGoldenCheckpoints = flag.Bool("update", false, "rewrite testdata/golden-checkpoints.txt")

// goldenCheckpointBytes encodes cp and requires the bytes to be a fixed
// point of decode followed by encode.
func goldenCheckpointBytes(t *testing.T, cp *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := decoded.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("encode(decode(bytes)) differs from bytes")
	}
	return buf.Bytes()
}

// goldenShardParts checkpoints every shard engine and merges the parts,
// returning the parts followed by the merged checkpoint.
func goldenShardParts(t *testing.T, engines []*Engine) []*Checkpoint {
	t.Helper()
	parts := make([]*Checkpoint, len(engines))
	for i, eng := range engines {
		cp, err := eng.Checkpoint()
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		parts[i] = cp
	}
	merged, err := MergeCheckpoints(parts)
	if err != nil {
		t.Fatal(err)
	}
	return append(parts, merged)
}

// goldenCheckpointCases builds every pinned checkpoint, keyed by case name:
// each engine scenario at step 24, the shards and merge of a lease-fed
// bursting world, and the shards and merge of a 3-way split of the long
// run, once plain and once with every optional per-cluster section on.
func goldenCheckpointCases(t *testing.T) map[string]*Checkpoint {
	t.Helper()
	cases := make(map[string]*Checkpoint)
	for name, sc := range engineScenarios(t) {
		sc = clonePolicy(t, sc)
		eng, err := NewEngine(sc)
		if err != nil {
			t.Fatal(err)
		}
		driveSteps(t, eng, sc, 24)
		cp, err := eng.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		cases["engine/"+name] = cp
	}

	addShards := func(prefix string, cps []*Checkpoint) {
		for i, cp := range cps[:len(cps)-1] {
			cases[fmt.Sprintf("%s/shard%d", prefix, i)] = cp
		}
		cases[prefix+"/merged"] = cps[len(cps)-1]
	}

	burst := cliqueScenario(t, 1000, [][2]string{{"NP15", "SP15"}, {"NYC", "DOM"}})
	burst.SoftCaps = tightSoftCaps(t, burst)
	burst.BurstGate = SelfGate{}
	gates := jointGateBits(t, burst)
	addShards("burst-leases", goldenShardParts(t, leaseFedShardEngines(t, clonePolicy(t, burst), gates, burst.Steps/2)))

	plain := longRunScenario(t, 600)
	engines, _ := shardEngines(t, plain, 600)
	addShards("merge-600km", goldenShardParts(t, engines))

	full := allSectionsScenario(t)
	engines, _ = shardEngines(t, full, 240)
	addShards("merge-600km-all-sections", goldenShardParts(t, engines))
	return cases
}

// TestGoldenCheckpoints is the byte-identity gate on the checkpoint wire
// format: every pinned case must encode to the SHA-256 recorded under
// testdata/, and its bytes must survive decode followed by encode
// unchanged. Only an intended format change may regenerate the digests:
//
//	go test ./internal/sim -run TestGoldenCheckpoints -update
func TestGoldenCheckpoints(t *testing.T) {
	path := filepath.Join("testdata", "golden-checkpoints.txt")
	cases := goldenCheckpointCases(t)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	got := make(map[string]string, len(cases))
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			sum := sha256.Sum256(goldenCheckpointBytes(t, cases[name]))
			got[name] = hex.EncodeToString(sum[:])
		})
	}
	if *updateGoldenCheckpoints {
		var b strings.Builder
		b.WriteString("# SHA-256 of each case's encoded checkpoint (see TestGoldenCheckpoints).\n")
		b.WriteString("# Regenerate: go test ./internal/sim -run TestGoldenCheckpoints -update\n")
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/sim -run TestGoldenCheckpoints -update)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no golden digest recorded (new case? regenerate with -update)", name)
		case w != got[name]:
			t.Errorf("%s: checkpoint bytes drifted: sha256 %s, golden %s", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := cases[name]; !ok {
			t.Errorf("%s: golden digest recorded but no case produced it", name)
		}
	}
}
