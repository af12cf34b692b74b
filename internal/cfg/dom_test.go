package cfg

// dominators computes the dominator tree of g from the entry node.
func dominators(g *Graph, entry int) *DomTree {
	t := new(DomTree)
	t.refill(g.N(), entry, g.Succs, g.Preds)
	return t
}

// postDominators computes the postdominators of sg (see
// PostDomTree.Refill).
func postDominators(sg *Subgraph, exits []int) *PostDomTree {
	t := new(PostDomTree)
	t.Refill(sg, exits)
	return t
}
