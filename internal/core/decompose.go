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

// Decomposition simulates the structural choices of the path-optimal
// run on a query (ignoring data): repeatedly reduce, choose (x, S^x),
// and peel the path, until at most one relation remains per component.
// The peeled paths partition the join tree into node-disjoint paths —
// the linear cover of Definition 4.7 (Figure 5) — so this is the
// decomposition the cost formula of Theorem 3 charges.
func Decomposition(q *hypergraph.Query) ([]PathChoice, error) {
	if !plan.Acyclic(q) {
		return nil, fmt.Errorf("core: %s is not acyclic", q.Name())
	}
	alive := q.AllEdges()
	vars := make([]hypergraph.VarSet, q.NumEdges())
	for e := range vars {
		vars[e] = q.EdgeVars(e)
	}
	var out []PathChoice
	for guard := 0; guard < q.NumEdges()+4; guard++ {
		// Structural reduce.
		for again := true; again; {
			again = false
			for _, i := range alive.Edges() {
				for _, j := range alive.Edges() {
					if i == j || !vars[i].SubsetOf(vars[j]) {
						continue
					}
					if vars[i].Equal(vars[j]) && i < j {
						continue
					}
					alive.Remove(i)
					again = true
					break
				}
			}
		}
		if alive.Len() <= 1 {
			break
		}
		qc := hypergraph.NewQuery(q.Name() + "|decomp")
		var origOf []int
		for _, e := range alive.Edges() {
			qc.AddEdgeVars(q.Edge(e).Name, vars[e])
			origOf = append(origOf, e)
		}
		if len(qc.ConnectedComponents()) > 1 {
			// Components decompose independently; recurse per component
			// and splice.
			for _, comp := range qc.ConnectedComponents() {
				var keep hypergraph.EdgeSet
				for _, i := range comp.Edges() {
					keep.Add(origOf[i])
				}
				sub := q.KeepEdges(keep)
				cs, err := Decomposition(sub)
				if err != nil {
					return nil, err
				}
				out = append(out, cs...)
			}
			return out, nil
		}
		tree, ok := plan.GYO(qc)
		if !ok {
			return nil, fmt.Errorf("core: decomposition subquery cyclic (bug)")
		}
		ch := choosePathOptimal(tree, origOf, vars)
		pc := PathChoice{Attr: q.AttrName(ch.x)}
		for _, e := range ch.sx {
			pc.Path = append(pc.Path, q.Edge(e).Name)
			alive.Remove(e)
		}
		for _, e := range alive.Edges() {
			pc.Residual = append(pc.Residual, q.Edge(e).Name)
		}
		out = append(out, pc)
	}
	return out, nil
}
