package core

import (
	"gsched/internal/cfg"
	"gsched/internal/dataflow"
	"gsched/internal/ir"
)

// SetLiveCheck installs fn as the liveness oracle hook (nil removes it):
// it sees every liveness answer the region scheduler gives with no edit
// pending. Tests that set it must not run in parallel with other
// scheduling tests.
func SetLiveCheck(fn func(f *ir.Func, g *cfg.Graph, scope []bool, base, got *dataflow.Liveness)) {
	liveCheck = fn
}
