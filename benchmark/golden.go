package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenSeed is the seed golden.json pins digests for (the default seed).
const goldenSeed = 42

// golden pins the simulated output of the deterministic workloads at the
// default seed. A change that only makes the simulator faster must leave every
// digest as it is; only a deliberate model change may rewrite the file
// (-update-golden).
type golden struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func goldenPath(cfg *runConfig) string { return filepath.Join(cfg.dir, "golden.json") }

func readGolden(cfg *runConfig) (golden, error) {
	g := golden{Seed: goldenSeed, Digests: map[string]string{}}
	data, err := os.ReadFile(goldenPath(cfg))
	if os.IsNotExist(err) && cfg.updateGolden {
		return g, nil
	}
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("%s: %w", goldenPath(cfg), err)
	}
	return g, nil
}

// checkGolden compares the run's digest with the pinned one. Only full-size
// runs at the golden seed of workloads whose output is a pure function of the
// seed (the simulator and the sweep) are pinned.
func checkGolden(cfg *runConfig, res *result) error {
	if !res.pinned || cfg.short || cfg.seed != goldenSeed {
		return nil
	}
	g, err := readGolden(cfg)
	if err != nil {
		return err
	}
	if cfg.updateGolden {
		g.Digests[cfg.workload] = res.digest
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(goldenPath(cfg), append(data, '\n'), 0o644)
	}
	want, ok := g.Digests[cfg.workload]
	if !ok {
		res.problem("golden.json pins no digest for %s", cfg.workload)
	} else if want != res.digest {
		res.problem("output digest %s differs from golden.json's %s", res.digest, want)
	}
	return nil
}
