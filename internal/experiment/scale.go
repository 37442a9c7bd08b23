package experiment

import (
	"lockss/internal/world"
)

// This file registers the capacity-tier scenarios: populations far beyond the paper's 100 peers, run attack-free to pin the
// protocol's steady-state behavior (and the simulator's determinism) at
// scale. They are not part of `-figure all`; run them by name.

// scaleLargeBaseline pins a ~5k-peer attack-free run. The scenario forces
// ScaleLarge regardless of the invocation's -scale so its golden bytes mean
// one thing.
var scaleLargeBaseline = mustRegister(&Scenario{
	Name:        "scale-large-baseline",
	Description: "attack-free steady state at the ~5k-peer capacity tier",
	Base: func(o Options) world.Config {
		o.Scale = ScaleLarge
		return o.baseWorld()
	},
	Seeds: 1,
})
