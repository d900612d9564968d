// Package experiment defines the reproduction scenarios: one runner per
// paper figure (Fig. 1–5) plus the ablations DESIGN.md commits to (A1–A4).
// Each runner wires internal/core, internal/mdp and internal/metrics
// together, runs deterministically from a seed, and returns both the series
// the paper plots and scalar summaries the benches and tests assert on.
package experiment

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"rths/internal/core"
	"rths/internal/regret"
)

// Scenario holds the knobs shared by all figure runners.
type Scenario struct {
	// NumPeers and NumHelpers size the system.
	NumPeers, NumHelpers int
	// Stages is the horizon of the run.
	Stages int
	// Levels and SwitchProb parameterize every helper's bandwidth chain.
	Levels     []float64
	SwitchProb float64
	// DemandPerPeer (kbps) enables the server-load accounting.
	DemandPerPeer float64
	// Learner overrides the RTHS defaults when non-nil.
	Learner *regret.Config
	// Factory overrides the policy entirely when non-nil (wins over Learner).
	Factory core.SelectorFactory
	// Seed drives the run.
	Seed uint64
}

// SmallScale is the paper's explicit Fig-2 setting: N=10 peers, H=4 helpers.
func SmallScale() Scenario {
	return Scenario{
		NumPeers:   10,
		NumHelpers: 4,
		Stages:     4000,
		Levels:     append([]float64(nil), core.DefaultLevels...),
		SwitchProb: core.DefaultSwitchProb,
		Seed:       1,
	}
}

// LargeScale is the Fig-1 setting; the paper gives no sizes, so DESIGN.md
// fixes N=200, H=20 (laptop-scale, configurable).
func LargeScale() Scenario {
	s := SmallScale()
	s.NumPeers = 200
	s.NumHelpers = 20
	s.Stages = 3000
	return s
}

func (s Scenario) validate() error {
	if s.NumPeers <= 0 || s.NumHelpers <= 0 {
		return fmt.Errorf("experiment: %d peers × %d helpers", s.NumPeers, s.NumHelpers)
	}
	if s.Stages <= 0 {
		return fmt.Errorf("experiment: Stages=%d", s.Stages)
	}
	if len(s.Levels) == 0 {
		return fmt.Errorf("experiment: no bandwidth levels")
	}
	return nil
}

// build assembles the core system for the scenario.
func (s Scenario) build() (*core.System, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	helpers := make([]core.HelperSpec, s.NumHelpers)
	for j := range helpers {
		helpers[j] = core.HelperSpec{
			Levels:     append([]float64(nil), s.Levels...),
			SwitchProb: s.SwitchProb,
			InitState:  -1,
		}
	}
	factory := s.Factory
	if factory == nil && s.Learner != nil {
		factory = core.LearnerFactory(*s.Learner)
	}
	return core.New(core.Config{
		NumPeers:      s.NumPeers,
		Helpers:       helpers,
		Factory:       factory,
		Seed:          s.Seed,
		DemandPerPeer: s.DemandPerPeer,
	})
}

// Table is a rendered experiment artifact: the rows cmd/figures prints and
// EXPERIMENTS.md records.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddFloatRow appends a row of floats rendered with 4 significant digits.
func (t *Table) AddFloatRow(vals ...float64) {
	cells := make([]string, len(vals))
	for i, v := range vals {
		cells[i] = strconv.FormatFloat(v, 'g', 4, 64)
	}
	t.AddRow(cells...)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("# ")
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
