package cluster

import (
	"fmt"

	"adawave"
	"adawave/internal/core"
	"adawave/internal/embed"
	"adawave/internal/grid"
	"adawave/internal/persist"
)

// ConfigFromMeta rebuilds the adawave.Config a recovered or replicated
// session runs under, then verifies it re-renders to exactly the stored
// fingerprint through core.ConfigFingerprint — the same canonical renderer
// session creation and checkpointing use — so neither the serving layer nor
// a follower can drift from the checkpoint format. Only threshold
// strategies the server can create (the default) are restorable.
func ConfigFromMeta(m persist.ConfigMeta) (adawave.Config, error) {
	cfg := adawave.DefaultConfig()
	cfg.Scale = m.Scale
	cfg.Levels = m.Levels
	basis, err := adawave.BasisByName(m.Basis)
	if err != nil {
		return cfg, err
	}
	cfg.Basis = basis
	switch m.Connectivity {
	case "faces":
		cfg.Connectivity = grid.Faces
	case "full":
		cfg.Connectivity = grid.Full
	default:
		return cfg, fmt.Errorf("unknown connectivity %q", m.Connectivity)
	}
	cfg.CoeffEpsilon = m.CoeffEpsilon
	cfg.MinClusterCells = m.MinClusterCells
	cfg.MinClusterMass = m.MinClusterMass
	if m.Embedding != "" {
		sp, err := embed.ParseSpec(m.Embedding)
		if err != nil {
			return cfg, err
		}
		cfg.Embedding = sp
	}
	if got := core.ConfigFingerprint(cfg); got != m {
		return cfg, fmt.Errorf("config fingerprint does not round-trip (stored %+v, rebuilt %+v)", m, got)
	}
	return cfg, nil
}
