package resharding

import (
	"context"

	"alpacomm/internal/sharding"
)

// WarmInfo describes how WarmReplanContext produced its plan. Every plan is
// the cold plan of its (task, options), so Mode is always WarmCold. The
// type, WarmReplanContext and the Warm* modes stay exported only because
// bench/'s layer ladder names them; they read nothing until ROADMAP 7(a)
// drops that probe.
type WarmInfo struct {
	// Mode is how the plan was produced; one of the Warm* constants.
	Mode string
}

// Replan modes named in WarmInfo.Mode. Only WarmCold is produced.
const (
	WarmIdentity  = "identity"
	WarmSearch    = "search"
	WarmIncumbent = "incumbent"
	WarmCold      = "cold"
)

// WarmReplanContext is NewDraft then Draft.Plan on (task, opts): the cold
// plan, with a nil simulation and Mode == WarmCold. The overlay being
// replanned away from and its plan are ignored.
func WarmReplanContext(ctx context.Context, task *sharding.Task, opts Options, _ *sharding.Task, _ *Plan) (*Plan, *SimResult, WarmInfo, error) {
	info := WarmInfo{Mode: WarmCold}
	d, err := NewDraft(task, opts)
	if err != nil {
		return nil, nil, info, err
	}
	plan, err := d.Plan(ctx)
	return plan, nil, info, err
}
