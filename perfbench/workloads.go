package main

import (
	"fmt"
	"math/rand"
	"strings"

	"orderopt/internal/catalog"
	"orderopt/internal/sqlparse"
	"orderopt/internal/tpcr"
)

// statement is one request the client sends: its class (the unit every
// latency summary is taken over) and its SQL.
type statement struct {
	Class string
	SQL   string
}

// workload is one traffic mix against planserverd.
type workload struct {
	Name string
	// Path is the endpoint every request goes to: /plan or /execute.
	Path string
	// Dataset and Stream shape /execute requests.
	Dataset string
	Stream  bool
	// Classes lists the statement classes in report order.
	Classes []string
	// Rotation is the request sequence; the client cycles it in order.
	Rotation []statement
	// Probe is the fixed first request of every cold start: the same
	// for every seed, so set-up time measures the server, not the
	// statement a seed happened to put first.
	Probe statement
	// Cold demands that every answer was planned from scratch.
	Cold bool
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"plan-cold", "exec-report", "stream-export"}

// The six report statements of exec-report; stream-export streams the
// two that return every joined lineitem.
var reportStatements = []statement{
	{"q8", strings.Join(strings.Fields(tpcr.Query8SQL), " ")},
	{"orderflow", "select * from customer, orders, lineitem where l_orderkey = o_orderkey and o_custkey = c_custkey order by o_orderkey"},
	{"lineitem-agg", "select o_custkey, sum(l_extendedprice), max(l_discount), count(*) from orders, lineitem where l_orderkey = o_orderkey group by o_custkey order by o_custkey"},
	{"top10", "select * from orders, customer where o_custkey = c_custkey order by o_orderkey limit 10"},
	{"nation-group", "select c_nationkey, count(*) from customer, orders where o_custkey = c_custkey group by c_nationkey order by c_nationkey"},
	{"psl", "select * from part, supplier, lineitem where p_partkey = l_partkey and s_suppkey = l_suppkey order by p_partkey"},
}

var streamClasses = []string{"orderflow", "psl"}

func reportStatement(class string) statement {
	for _, s := range reportStatements {
		if s.Class == class {
			return s
		}
	}
	panic("perfbench: unknown report class " + class)
}

// rotationBlocks is the number of blocks in a report workload's
// rotation. Each block holds every class once, in a seeded random
// order. A fixed cyclic order would let the server's garbage
// collections, which come at a steady pace of allocation, lock onto
// the same position in the cycle and so always onto the same class; in
// one run a class's tail is then all collections, in the next none.
const rotationBlocks = 64

// buildWorkload makes the named workload's requests from seed. The
// report workloads have fixed statements; the seed fixes the order of
// their rotation.
func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "plan-cold":
		stmts, err := planColdStatements(rng, planColdPerSize)
		if err != nil {
			return nil, err
		}
		return &workload{
			Name: name, Path: "/plan", Classes: []string{"plan"}, Rotation: stmts,
			Probe: statement{"probe", reportStatement("q8").SQL}, Cold: true,
		}, nil
	case "exec-report", "stream-export":
		w := &workload{Name: name, Path: "/execute", Dataset: "tpcr-large", Probe: reportStatement("top10")}
		if name == "exec-report" {
			for _, s := range reportStatements {
				w.Classes = append(w.Classes, s.Class)
			}
		} else {
			w.Classes = streamClasses
			w.Stream = true
		}
		for b := 0; b < rotationBlocks; b++ {
			for _, i := range rng.Perm(len(w.Classes)) {
				w.Rotation = append(w.Rotation, reportStatement(w.Classes[i]))
			}
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// planColdPerSize is the number of plan-cold statements per relation
// count (2 to 8): 7 × 220 = 1540 statements, more than the server's
// 1024-entry plan cache and 256-entry prepared-statement cache, so
// cycling the list in a fixed order never hits either (both evict in
// insertion order).
const planColdPerSize = 220

// q8Relation is one relation of TPC-R Q8's join graph.
type q8Relation struct {
	alias, table string
	// sel is Q8's selection on the relation ("" if none).
	sel string
}

var q8Relations = []q8Relation{
	{"part", "part", "part.p_type = 'ECONOMY ANODIZED STEEL'"},
	{"supplier", "supplier", ""},
	{"lineitem", "lineitem", ""},
	{"orders", "orders", "orders.o_orderdate between date '1995-01-01' and date '1996-12-31'"},
	{"customer", "customer", ""},
	{"n1", "nation", ""},
	{"n2", "nation", ""},
	{"region", "region", "region.r_name = 'AMERICA'"},
}

// q8Edges are Q8's seven equi-join edges (indexes into q8Relations);
// the graph is a tree.
var q8Edges = []struct {
	a, b int
	pred string
}{
	{0, 2, "part.p_partkey = lineitem.l_partkey"},
	{1, 2, "supplier.s_suppkey = lineitem.l_suppkey"},
	{2, 3, "lineitem.l_orderkey = orders.o_orderkey"},
	{3, 4, "orders.o_custkey = customer.c_custkey"},
	{4, 5, "customer.c_nationkey = n1.n_nationkey"},
	{5, 7, "n1.n_regionkey = region.r_regionkey"},
	{1, 6, "supplier.s_nationkey = n2.n_nationkey"},
}

// planColdStatements draws perSize distinct statements for every
// relation count from 2 to 8: a random connected subgraph of Q8's join
// graph with Q8's selections on its relations, a random ORDER BY or
// GROUP BY over one or two of its columns, and its WHERE conjuncts in
// random order. Statements are distinct by the bound graph's
// fingerprint — the plan cache's key — not by text: two spellings of
// one graph would be a cache hit. Q8 itself (the probe) is excluded.
// The list is shuffled once; the client cycles it in that order.
func planColdStatements(rng *rand.Rand, perSize int) ([]statement, error) {
	cat := tpcr.Schema()
	probe, err := fingerprint(cat, reportStatement("q8").SQL)
	if err != nil {
		return nil, err
	}
	seen := map[uint64]bool{probe: true}
	var out []statement
	for size := 2; size <= len(q8Relations); size++ {
		for got, tries := 0, 0; got < perSize; tries++ {
			if tries > 200*perSize {
				return nil, fmt.Errorf("plan-cold: only %d distinct %d-relation statements", got, size)
			}
			sql := planColdSQL(rng, cat, connectedSubset(rng, size))
			fp, err := fingerprint(cat, sql)
			if err != nil {
				return nil, fmt.Errorf("plan-cold statement %q: %w", sql, err)
			}
			if seen[fp] {
				continue
			}
			seen[fp] = true
			out = append(out, statement{"plan", sql})
			got++
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// connectedSubset grows a random connected set of size relations of
// Q8's join graph from a random start, as a membership mask.
func connectedSubset(rng *rand.Rand, size int) []bool {
	in := make([]bool, len(q8Relations))
	in[rng.Intn(len(in))] = true
	for n := 1; n < size; n++ {
		var frontier []int
		for _, e := range q8Edges {
			switch {
			case in[e.a] && !in[e.b]:
				frontier = append(frontier, e.b)
			case in[e.b] && !in[e.a]:
				frontier = append(frontier, e.a)
			}
		}
		in[frontier[rng.Intn(len(frontier))]] = true
	}
	return in
}

// planColdSQL renders one statement over the relations marked in.
func planColdSQL(rng *rand.Rand, cat *catalog.Catalog, in []bool) string {
	var from, where, cols []string
	for i, r := range q8Relations {
		if !in[i] {
			continue
		}
		if r.alias == r.table {
			from = append(from, r.table)
		} else {
			from = append(from, r.table+" "+r.alias)
		}
		if r.sel != "" {
			where = append(where, r.sel)
		}
		t, _ := cat.Table(r.table)
		for _, c := range t.Columns {
			cols = append(cols, r.alias+"."+c.Name)
		}
	}
	for _, e := range q8Edges {
		if in[e.a] && in[e.b] {
			where = append(where, e.pred)
		}
	}
	rng.Shuffle(len(where), func(i, j int) { where[i], where[j] = where[j], where[i] })
	pick := make([]string, 1+rng.Intn(2))
	for i, j := range rng.Perm(len(cols))[:len(pick)] {
		pick[i] = cols[j]
	}
	keys := strings.Join(pick, ", ")
	body := " from " + strings.Join(from, ", ") + " where " + strings.Join(where, " and ")
	if rng.Intn(2) == 0 {
		return "select *" + body + " order by " + keys
	}
	return "select " + keys + ", count(*)" + body + " group by " + keys
}

// fingerprint binds sql against cat and returns its graph fingerprint.
func fingerprint(cat *catalog.Catalog, sql string) (uint64, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return 0, err
	}
	bq, err := sqlparse.Bind(stmt, cat)
	if err != nil {
		return 0, err
	}
	return bq.Graph.Fingerprint(), nil
}
