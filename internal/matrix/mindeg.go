package matrix

import "container/heap"

// Fill-reducing ordering for the sparse direct solvers: a greedy
// minimum-degree elimination on the symmetrized pattern of A + A^T, the
// same family as the approximate-minimum-degree (AMD) orderings used by
// production sparse LU/Cholesky codes. The quotient-graph bookkeeping of
// full AMD is replaced by explicit clique unions, which is exact (not
// approximate) and plenty fast at the grid sizes this repository
// targets; ties break on the smallest node index so the ordering — and
// therefore every downstream factorization — is deterministic.

// degHeap is a lazy min-heap of (degree, node) pairs: stale entries are
// skipped at pop time instead of being re-keyed.
type degHeap struct {
	deg  []int
	node []int
}

func (h *degHeap) Len() int { return len(h.node) }
func (h *degHeap) Less(a, b int) bool {
	if h.deg[a] != h.deg[b] {
		return h.deg[a] < h.deg[b]
	}
	return h.node[a] < h.node[b]
}
func (h *degHeap) Swap(a, b int) {
	h.deg[a], h.deg[b] = h.deg[b], h.deg[a]
	h.node[a], h.node[b] = h.node[b], h.node[a]
}
func (h *degHeap) Push(x any) {
	p := x.([2]int)
	h.deg = append(h.deg, p[0])
	h.node = append(h.node, p[1])
}
func (h *degHeap) Pop() any {
	n := len(h.node) - 1
	p := [2]int{h.deg[n], h.node[n]}
	h.deg = h.deg[:n]
	h.node = h.node[:n]
	return p
}

// MinDegreeOrdering returns an elimination order q for the n x n pattern
// given by column pointers and row indices (any CSC-like pattern; the
// structure of A + A^T is used, diagonals ignored). q[k] is the node
// eliminated at step k; factoring columns of A in this order keeps fill
// close to what AMD achieves on the grid/interconnect matrices this
// repository assembles.
func MinDegreeOrdering(n int, colPtr, rowIdx []int) []int {
	// Symmetrized adjacency as duplicate-free per-node lists. A stamp
	// array marks set membership for the deduplication and the clique
	// unions; determinism comes from degree counts and index
	// tie-breaks, never from list order.
	adj := make([][]int, n)
	for j := 0; j < n; j++ {
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			i := rowIdx[p]
			if i == j || i < 0 || i >= n {
				continue
			}
			adj[i] = append(adj[i], j)
			adj[j] = append(adj[j], i)
		}
	}
	mark := make([]int, n)
	stamp := 0
	h := &degHeap{}
	for i, ai := range adj {
		stamp++
		k := 0
		for _, u := range ai {
			if mark[u] != stamp {
				mark[u] = stamp
				ai[k] = u
				k++
			}
		}
		adj[i] = ai[:k]
		h.deg = append(h.deg, k)
		h.node = append(h.node, i)
	}
	heap.Init(h)

	order := make([]int, 0, n)
	eliminated := make([]bool, n)
	for len(order) < n {
		p := heap.Pop(h).([2]int)
		v := p[1]
		if eliminated[v] || p[0] != len(adj[v]) {
			continue // stale heap entry
		}
		eliminated[v] = true
		order = append(order, v)

		// Form the elimination clique: each of v's surviving neighbours
		// drops v and gains the others.
		nbrs := adj[v]
		adj[v] = nil
		for _, u := range nbrs {
			stamp++
			mark[u] = stamp
			au := adj[u]
			k := 0
			for _, w := range au {
				if w != v {
					mark[w] = stamp
					au[k] = w
					k++
				}
			}
			au = au[:k]
			for _, w := range nbrs {
				if mark[w] != stamp {
					au = append(au, w)
				}
			}
			adj[u] = au
			heap.Push(h, [2]int{len(au), u})
		}
	}
	return order
}

// orderingOf computes the fill-reducing ordering for a matrix's pattern.
func orderingOf[T Scalar](a *CSCOf[T]) []int {
	return MinDegreeOrdering(a.cols, a.colPtr, a.rowIdx)
}
