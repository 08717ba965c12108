package main

import (
	"context"
	"fmt"

	"orderopt/internal/exec"
	"orderopt/internal/planner"
	"orderopt/internal/query"
	"orderopt/internal/tpcr"
)

// reference is what a correct answer to one /execute statement looks
// like, computed in-process from the order-oblivious plan: hash joins,
// hash grouping and one sort on top, run serially. It is a different
// plan from the one the server picks, so a wrong plan, or a fault in
// an operator only the served plan uses, cannot vouch for itself.
type reference struct {
	RowCount int64
	// Columns names the result columns in the reference's order;
	// Checksum is exec.ChecksumRows over the rows in that order.
	Columns  []string
	Checksum int64
	// OrderBy names the ORDER BY columns as the server names result
	// columns.
	OrderBy []string
	// RowsSorted counts the rows the oblivious plan sorted.
	RowsSorted int64
}

// obliviousPlanner plans with merge joins, ordered grouping and index
// orders disabled: the order-oblivious baseline.
func obliviousPlanner() *planner.Planner {
	cfg := planner.DefaultConfig(tpcr.Schema())
	cfg.Analyze = query.AnalyzeOptions{}
	cfg.Optimizer.DisableMergeJoin = true
	cfg.Optimizer.DisableOrderedGrouping = true
	return planner.New(cfg)
}

// servedPlanner mirrors planserverd's default planner configuration
// for a server running workers morsel workers.
func servedPlanner(workers int) *planner.Planner {
	cfg := planner.DefaultConfig(tpcr.Schema())
	cfg.Optimizer.MaxDOP = workers
	return planner.New(cfg)
}

// origin returns the prepared query a plan's annotations decode
// through (see planner.Planned.Origin).
func origin(pd planner.Planned, q *planner.PreparedQuery) *planner.PreparedQuery {
	if pd.Origin != nil {
		return pd.Origin
	}
	return q
}

// computeReference plans sql order-obliviously and runs it over ds.
func computeReference(pl *planner.Planner, ds *exec.Dataset, sql string) (*reference, error) {
	pd, q, err := pl.PlanQuery(sql)
	if err != nil {
		return nil, err
	}
	org := origin(pd, q)
	g := org.Prepared().Graph()
	runner := ds.Runner(org.Analysis())
	runner.MaxDOP = 1
	pipe, err := runner.Compile(pd.Best)
	if err != nil {
		return nil, err
	}
	rows, err := pipe.ExecuteContext(context.Background())
	if err != nil {
		return nil, err
	}
	ref := &reference{RowCount: int64(len(rows)), Checksum: exec.ChecksumRows(rows), RowsSorted: pipe.RowsSorted()}
	for _, c := range pipe.Schema {
		name := "aggregate"
		if c.Rel >= 0 {
			name = g.ColumnName(c)
		}
		ref.Columns = append(ref.Columns, name)
	}
	for _, c := range g.OrderBy {
		ref.OrderBy = append(ref.OrderBy, g.ColumnName(c))
	}
	return ref, nil
}

// loadDataset generates one TPC-R dataset through a fresh on-demand
// registry — the loader planserverd runs on first use.
func loadDataset(name string) (*exec.Dataset, error) {
	ds, unpin, err := exec.TPCRLazyRegistry().Acquire(name)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", name, err)
	}
	unpin()
	return ds, nil
}

// references computes the reference of every distinct statement of w,
// its probe included.
func references(w *workload, ds *exec.Dataset) (map[string]*reference, error) {
	pl := obliviousPlanner()
	refs := map[string]*reference{}
	for _, st := range append([]statement{w.Probe}, w.Rotation...) {
		if refs[st.SQL] != nil {
			continue
		}
		ref, err := computeReference(pl, ds, st.SQL)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", st.Class, err)
		}
		refs[st.SQL] = ref
	}
	return refs, nil
}
