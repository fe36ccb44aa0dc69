package core

import (
	"fmt"

	"coverpack/internal/hypergraph"
	"coverpack/internal/plan"
)

// PathChoice records one (x, S^x) decision of the path-optimal run: the
// first attribute and the leaf-to-ancestor path peeled with it.
type PathChoice struct {
	// Attr is the first attribute x.
	Attr string
	// Path lists the relations of S^x, leaf first.
	Path []string
	// Residual lists the relations remaining after the light peel.
	Residual []string
}

// Decomposition lists the (x, S^x) choices of the program a
// path-optimal run compiles for q, ignoring data: each Case I step's
// choice in light-branch order, and each Case II component's choices in
// turn. The peeled paths partition the join tree into node-disjoint
// paths — the linear cover of Definition 4.7 (Figure 5) — so this is the
// decomposition the cost formula of Theorem 3 charges.
func Decomposition(q *hypergraph.Query) ([]PathChoice, error) {
	if !plan.Acyclic(q) {
		return nil, fmt.Errorf("core: %s is not acyclic", q.Name())
	}
	ex := &executor{q: q, strat: PathOptimal}
	vars := make([]hypergraph.VarSet, q.NumEdges())
	for e := range vars {
		vars[e] = q.EdgeVars(e)
	}
	root, err := ex.compile(q.AllEdges().Edges(), vars, nil)
	if err != nil {
		return nil, err
	}
	var out []PathChoice
	return out, ex.decompose(root, &out)
}

// decompose appends the choices of st's light chain and components.
func (ex *executor) decompose(st *step, out *[]PathChoice) error {
	for st.caseI != nil {
		c := st.caseI
		pc := PathChoice{Attr: ex.q.AttrName(c.x)}
		for _, e := range c.sx {
			pc.Path = append(pc.Path, ex.q.Edge(e).Name)
		}
		for _, e := range c.lightLive {
			pc.Residual = append(pc.Residual, ex.q.Edge(e).Name)
		}
		*out = append(*out, pc)
		var err error
		if st, err = c.light.step(ex); err != nil {
			return err
		}
	}
	if st.caseII == nil {
		return nil
	}
	for i := range st.caseII.comps {
		child, err := st.caseII.comps[i].child.step(ex)
		if err != nil {
			return err
		}
		if err := ex.decompose(child, out); err != nil {
			return err
		}
	}
	return nil
}
