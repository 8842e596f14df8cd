// Package worlds is the single source of the named synthetic corpora the
// tooling measures against. The paper's experiments (internal/experiments,
// behind cmd/ltr-bench), the serving benchmark (benchmark/) and
// `ltr-server -synthetic` all need the exact same worlds, and hand-kept
// copies of the calibration would silently drift — a benchmark run is
// only comparable to its predecessors if "movielens" still means the same
// corpus. They all resolve kinds here.
package worlds

import (
	"fmt"
	"sort"
	"strings"

	"longtailrec/internal/synth"
)

// Kinds returns the named corpus kinds, sorted.
func Kinds() []string {
	names := make([]string, 0, len(registry))
	for k := range registry {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// registry maps a corpus kind to its calibrated generator configuration.
// The synth package owns the calibrations; this table only names them.
var registry = map[string]func() synth.Config{
	"movielens": synth.MovieLensLike,
	"douban":    synth.DoubanLike,
	"clustered": synth.ClusteredLike,
}

// Config resolves a corpus kind to its synth configuration with the seed
// applied. Deterministic: equal (kind, seed) pairs yield equal configs.
func Config(kind string, seed int64) (synth.Config, error) {
	mk, ok := registry[kind]
	if !ok {
		return synth.Config{}, fmt.Errorf("worlds: unknown corpus kind %q (choices: %s)", kind, strings.Join(Kinds(), ", "))
	}
	cfg := mk()
	cfg.Seed = seed
	return cfg, nil
}

// Generate builds the named world at the given seed — the one-call path
// for callers that need no change to the configuration.
func Generate(kind string, seed int64) (*synth.World, error) {
	cfg, err := Config(kind, seed)
	if err != nil {
		return nil, err
	}
	return synth.Generate(cfg)
}
