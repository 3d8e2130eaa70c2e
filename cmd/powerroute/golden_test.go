package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerroute/internal/core"
	"powerroute/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden registry hashes under testdata/")

// goldenWorlds are the worlds whose registry output is pinned. The small
// one runs under -short; the full one is the world `powerroute all`
// renders by default. Its "all" line is the SHA-256 of the whole
// `powerroute -seed 42 all` output, the hash the perfbench registry
// workload also records.
var goldenWorlds = []struct {
	file  string
	opts  core.Options
	short bool
}{
	{"golden-m3-d3.txt", core.Options{Seed: experiments.DefaultSeed, MarketMonths: 3, TraceDays: 3}, true},
	{"golden-seed42.txt", core.Options{Seed: experiments.DefaultSeed}, false},
}

// registryHashes runs every registered experiment on one world and
// returns "<id> <sha256>" lines in registry order: the hash of the block
// `powerroute` prints for the experiment, or of "error: <message>" when
// it fails on this world (the small world cannot serve the figures
// anchored to dates past its horizon). When every experiment succeeds, a
// final "all" line hashes the concatenated blocks.
func registryHashes(t *testing.T, opts core.Options) []string {
	t.Helper()
	env, err := experiments.NewEnvWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	all := sha256.New()
	failed := false
	for _, def := range experiments.All() {
		var block bytes.Buffer
		if res, err := def.Run(env); err != nil {
			fmt.Fprintf(&block, "error: %v\n", err)
			failed = true
		} else {
			writeResult(&block, res)
			all.Write(block.Bytes())
		}
		sum := sha256.Sum256(block.Bytes())
		lines = append(lines, def.ID+" "+hex.EncodeToString(sum[:]))
	}
	if !failed {
		lines = append(lines, "all "+hex.EncodeToString(all.Sum(nil)))
	}
	return lines
}

func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/powerroute -run TestGoldenRegistry -update)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[id] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenRegistry is the byte-identity gate on the experiment
// registry: every experiment's rendered output must hash to the value
// checked in under testdata/, and a drift names the experiment. After an
// intended output change, regenerate with
//
//	go test ./cmd/powerroute -run TestGoldenRegistry -update
//
// (add -short to rewrite only the small world).
func TestGoldenRegistry(t *testing.T) {
	for _, w := range goldenWorlds {
		t.Run(w.file, func(t *testing.T) {
			if testing.Short() && !w.short {
				t.Skip("full-world registry skipped in -short")
			}
			path := filepath.Join("testdata", w.file)
			got := registryHashes(t, w.opts)
			if *updateGolden {
				flags := fmt.Sprintf("-seed %d", w.opts.Seed)
				if w.opts.MarketMonths != 0 || w.opts.TraceDays != 0 {
					flags += fmt.Sprintf(" -months %d -days %d", w.opts.MarketMonths, w.opts.TraceDays)
				}
				header := "# SHA-256 of each experiment's `powerroute " + flags + " <id>` block.\n" +
					"# Regenerate: go test ./cmd/powerroute -run TestGoldenRegistry -update\n"
				if err := os.WriteFile(path, []byte(header+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want := readGolden(t, path)
			seen := make(map[string]bool, len(got))
			for _, line := range got {
				id, sum, _ := strings.Cut(line, " ")
				seen[id] = true
				switch w, ok := want[id]; {
				case !ok:
					t.Errorf("%s: no golden hash recorded (new experiment? regenerate with -update)", id)
				case w != sum:
					t.Errorf("%s: output drifted: sha256 %s, golden %s", id, sum, w)
				}
			}
			for id := range want {
				if !seen[id] {
					t.Errorf("%s: golden hash recorded but nothing rendered it", id)
				}
			}
		})
	}
}
