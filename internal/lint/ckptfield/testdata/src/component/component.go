// Package component is a miniature of sim's component table: per-cluster
// sections live behind an interface, and each component's role methods
// carry the names of the entry points that drive them. ckptfield gathers
// every function of a ckpt:state name across receivers, so a role method
// counts for its entry point even though the entry point only reaches it
// through an interface call. A field one component captures but no
// component restores must still fail.
package component

// Engine holds one mandatory and two optional per-cluster sections.
//
// ckpt:state Checkpoint,loadCheckpoint
type Engine struct {
	steps   int
	loads   []float64
	budgets []int
	spent   []float64 // want `Engine\.spent is not referenced by loadCheckpoint`
}

// Checkpoint is the wire form.
//
// ckpt:state Checkpoint,loadCheckpoint
type Checkpoint struct {
	Steps   int
	Loads   []float64
	Budgets []int
	Spent   []float64 // want `Checkpoint\.Spent is not referenced by loadCheckpoint`
}

type component interface {
	Checkpoint(e *Engine, p *Checkpoint)
	loadCheckpoint(e *Engine, p *Checkpoint)
}

// components is a package-level table: references inside the entries do
// not count, only the role methods of the entries' types do.
var components = []component{loads{}, budgets{}}

func (e *Engine) Checkpoint() *Checkpoint {
	p := &Checkpoint{Steps: e.steps}
	for _, k := range components {
		k.Checkpoint(e, p)
	}
	return p
}

func (e *Engine) loadCheckpoint(p *Checkpoint) {
	e.steps = p.Steps
	for _, k := range components {
		k.loadCheckpoint(e, p)
	}
}

type loads struct{}

func (loads) Checkpoint(e *Engine, p *Checkpoint)     { p.Loads = append([]float64(nil), e.loads...) }
func (loads) loadCheckpoint(e *Engine, p *Checkpoint) { copy(e.loads, p.Loads) }

// budgets captures its ledger (spent) alongside its section, but its
// restore was written without it: both sides of the ledger are reported.
type budgets struct{}

func (budgets) Checkpoint(e *Engine, p *Checkpoint) {
	p.Budgets = append([]int(nil), e.budgets...)
	p.Spent = append([]float64(nil), e.spent...)
}
func (budgets) loadCheckpoint(e *Engine, p *Checkpoint) { copy(e.budgets, p.Budgets) }
