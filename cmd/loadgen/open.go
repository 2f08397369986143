package main

import (
	"fmt"
	"time"

	"alpacomm/internal/service"
)

// Open-loop rows. The closed loop sends the next request when the previous
// response lands, so a slow server throttles its own load and the measured
// percentiles flatter it — coordinated omission. Open arrivals fix the
// schedule first: every request gets an intended start time drawn from a
// seeded arrival process (internal/loadmodel), agents dispatch on that
// schedule no matter how the server is doing, and latency is measured from
// the intended start. That is the one loop in drive.go under -arrivals
// poisson|bursty|diurnal; open_test.go replays the same arrival streams
// through a discrete-event model of the serve path to pin the correction
// on a simulated clock.

// openLoopRow is one open-loop measurement in the -json report.
type openLoopRow struct {
	Mix    string `json:"mix"` // poisson | bursty | diurnal
	SLO    bool   `json:"slo"` // admission controller enabled
	Agents int    `json:"agents"`
	Seed   uint64 `json:"seed"`
	// OfferedRPS is the scheduled arrival rate; AchievedRPS counts
	// responses served within the run horizon. GapFraction is the
	// offered-vs-achieved shortfall (0 = the server kept up).
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	GapFraction float64 `json:"gap_fraction"`
	Offered     int     `json:"offered"`
	Served      int     `json:"served"`
	Shed        int     `json:"shed"`
	Degraded    int     `json:"degraded_served"`
	BudgetMs    float64 `json:"budget_ms,omitempty"`
	// Corrected percentiles measure from the intended start (coordinated
	// omission corrected); naive percentiles measure from dispatch, the
	// figure a closed-loop generator would report.
	CorrectedP50Ms  float64 `json:"corrected_p50_ms"`
	CorrectedP99Ms  float64 `json:"corrected_p99_ms"`
	CorrectedP999Ms float64 `json:"corrected_p99_9_ms"`
	NaiveP50Ms      float64 `json:"naive_p50_ms"`
	NaiveP99Ms      float64 `json:"naive_p99_ms"`
	NaiveP999Ms     float64 `json:"naive_p99_9_ms"`
	// Controller counters (SLO rows only).
	Degrades   int64 `json:"degrades,omitempty"`
	Sheds      int64 `json:"sheds,omitempty"`
	Recoveries int64 `json:"recoveries,omitempty"`
}

// setLatencies fills the six percentile columns from the two ascending
// series (seconds).
func (r *openLoopRow) setLatencies(due, dispatch []float64) {
	r.CorrectedP50Ms = percentileMillis(due, 50)
	r.CorrectedP99Ms = percentileMillis(due, 99)
	r.CorrectedP999Ms = percentileMillis(due, 99.9)
	r.NaiveP50Ms = percentileMillis(dispatch, 50)
	r.NaiveP99Ms = percentileMillis(dispatch, 99)
	r.NaiveP999Ms = percentileMillis(dispatch, 99.9)
}

// liveOpenRow is the open_loop row of a live run under open arrivals:
// offered over the schedule window against served over the wall time (the
// window itself when the last arrival finished inside it), and
// the server's own account of its controller — the /v2/stats admission
// block before and after the run, nil when the server runs none.
func liveOpenRow(mix string, agents int, seed uint64, all classTally, window, elapsed time.Duration, before, after *service.AdmissionStats) openLoopRow {
	row := openLoopRow{
		Mix:         mix,
		Agents:      agents,
		Seed:        seed,
		Offered:     all.attempts,
		OfferedRPS:  float64(all.attempts) / window.Seconds(),
		AchievedRPS: float64(all.ok) / max(elapsed, window).Seconds(),
		Served:      all.ok,
		Shed:        all.rejected,
		Degraded:    all.degraded,
	}
	row.setLatencies(all.due, all.dispatch)
	if row.OfferedRPS > 0 {
		row.GapFraction = 1 - row.AchievedRPS/row.OfferedRPS
	}
	if after != nil {
		row.SLO = true
		row.BudgetMs = after.BudgetMs
		row.Degrades, row.Sheds, row.Recoveries = after.Degrades, after.Sheds, after.Recoveries
		if before != nil {
			row.Degrades -= before.Degrades
			row.Sheds -= before.Sheds
			row.Recoveries -= before.Recoveries
		}
	}
	return row
}

func printOpenRow(r openLoopRow) {
	slo := "slo off"
	if r.SLO {
		slo = fmt.Sprintf("slo %gms", r.BudgetMs)
	}
	fmt.Printf("open-loop %-7s %-9s %5d agents  offered %7.0f/s  achieved %7.0f/s  gap %5.1f%%\n",
		r.Mix, slo, r.Agents, r.OfferedRPS, r.AchievedRPS, 100*r.GapFraction)
	fmt.Printf("  served %d (degraded %d, shed %d)  corrected p50/p99/p99.9 %.2f/%.2f/%.2fms  naive %.2f/%.2f/%.2fms\n",
		r.Served, r.Degraded, r.Shed,
		r.CorrectedP50Ms, r.CorrectedP99Ms, r.CorrectedP999Ms,
		r.NaiveP50Ms, r.NaiveP99Ms, r.NaiveP999Ms)
	if r.SLO {
		fmt.Printf("  controller: %d degrades, %d sheds, %d recoveries\n", r.Degrades, r.Sheds, r.Recoveries)
	}
}
