package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"vcgraph/internal/graph"
	"vcgraph/internal/plan"
	rt "vcgraph/internal/runtime"
	"vcgraph/internal/seq"
)

// Frozen sizes. They were calibrated once on the reference runner (2
// cores, W = 2) so that a pass takes about a second and a whole run
// (five set-ups, a warm-up pass, fifteen measured seconds) ends well
// inside the driver's budget; see README.md. The second value is the
// -smoke size.
const (
	denseScale, denseScaleSmoke = 15, 8 // R-MAT vertices = 2^scale
	denseEdges, denseEdgesSmoke = 250_000, 2_000
	denseK                      = 10 // PageRank iterations

	sparseSide, sparseSideSmoke = 400, 24 // SSSP grid: ~2·side supersteps
	ccSide, ccSideSmoke         = 96, 12  // Hash-Min grid: work grows with side³

	ingestK = 5
)

// generate is a graph generator call, under a graph.generate span.
func (b *bench) generate(f func() *graph.Graph) *graph.Graph {
	sp := b.tr.begin("graph.generate", -1, b.tr.newOp())
	defer b.tr.end(sp)
	return f()
}

// nearUnitWeights returns a copy of undirected g whose edges weigh
// 1 + U[0, 1), drawn from the seed. graph.RandomWeights draws from
// [1, 2^30]: shortest paths then meander, the SSSP frontier stops being
// thin, and supersteps, work and allocation swing by ±10 % with the
// seed. Near-unit weights keep paths close to hop-shortest, so every seed
// does the same amount of work on a different instance.
func nearUnitWeights(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	out := graph.New(g.N(), false)
	for _, e := range g.UndirectedEdges() {
		out.AddWeightedEdge(e.U, e.V, 1+rng.Float64())
	}
	return out
}

// on names the graph an op runs on.
func on(name string, op engineOp) engineOp {
	op.graph = name
	return op
}

// stage runs one non-engine operation of a pass (a call into graph, or
// the benchmark's own output step) under a span, and records it.
func (b *bench) stage(p *passStats, name string, f func() error) error {
	sp := b.tr.begin(name, -1, b.tr.newOp())
	t0 := time.Now()
	err := f()
	p.lat = append(p.lat, time.Since(t0))
	b.tr.end(sp)
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	p.op(err)
	return err
}

// attributeGraph times, standalone, the two partitioners the engines use
// and the planner's sampling pass on g.
func (b *bench) attributeGraph(g *graph.Graph) {
	csr := g.Pin()
	defer g.Unpin(csr)
	id := b.tr.newOp()
	sp := b.tr.begin("runtime.partition", -1, id)
	rt.PartitionDegreeBalancedCSR(csr, b.w)
	rt.PartitionHashN(csr.N(), b.w)
	b.tr.end(sp)
	sp = b.tr.begin("plan.sample", -1, id)
	plan.Sample(csr, b.w)
	b.tr.end(sp)
}

// --- dense-rank ---

// denseRank: few supersteps with every vertex active. Time is engine
// compute, gather/mailbox traffic and allocation.
type denseRank struct {
	g   *graph.Graph
	ops []engineOp
}

func (d *denseRank) setup(b *bench) error {
	scale, m := b.scale(denseScale, denseScaleSmoke), b.scale(denseEdges, denseEdgesSmoke)
	d.g = b.generate(func() *graph.Graph { return graph.RMAT(scale, m, b.opt.seed) })
	ranks := seq.PageRank(d.g, alpha, denseK, &seq.Ops{})
	cores := seq.KCore(d.g, &seq.Ops{})
	for _, engine := range []string{"pregel", "pregel-push", "gas", "blockcentric"} {
		d.ops = append(d.ops, on("rmat", pagerankOp(d.g, engine, denseK, b.w, ranks, 1e-9)))
	}
	d.ops = append(d.ops, on("rmat", kcoreOp(d.g, b.w, cores)))
	return nil
}

func (d *denseRank) pass(b *bench, p *passStats) {
	for _, op := range d.ops {
		b.runEngineOp(op, p)
	}
}

func (d *denseRank) attribute(b *bench, p *passStats) { b.attributeGraph(d.g) }

func (d *denseRank) close() {}

// --- sparse-frontier ---

// sparseFrontier: hundreds of supersteps with a thin frontier. Time is
// per-superstep dispatch, barrier and worklist upkeep, plus the planner.
type sparseFrontier struct {
	grid *graph.Graph
	ops  []engineOp
}

func (s *sparseFrontier) setup(b *bench) error {
	side, cside := b.scale(sparseSide, sparseSideSmoke), b.scale(ccSide, ccSideSmoke)
	s.grid = b.generate(func() *graph.Graph {
		return nearUnitWeights(graph.Grid(side, side), b.opt.seed)
	})
	ccGrid := b.generate(func() *graph.Graph { return graph.Grid(cside, cside) })
	dist := seq.Dijkstra(s.grid, 0, &seq.Ops{})
	labels := seq.Components(ccGrid, &seq.Ops{})
	for _, engine := range []string{"pregel", "gas", "blockcentric", "async", "auto"} {
		s.ops = append(s.ops, on("grid", ssspOp(s.grid, engine, b.w, dist)))
	}
	for _, engine := range []string{"pregel", "auto"} {
		s.ops = append(s.ops, on("ccgrid", ccOp(ccGrid, engine, b.w, false, labels)))
	}
	return nil
}

func (s *sparseFrontier) pass(b *bench, p *passStats) {
	for _, op := range s.ops {
		b.runEngineOp(op, p)
	}
}

func (s *sparseFrontier) attribute(b *bench, p *passStats) { b.attributeGraph(s.grid) }

func (s *sparseFrontier) close() {}

// --- ingest-packed ---

// ingestPacked: the cold path of a batch user. Parse a SNAP file, build
// and transpose the CSR, pack it, round-trip it through a .vcsr file,
// traverse the mapped packed graph, write the values out.
type ingestPacked struct {
	dir    string
	snap   string       // the input file set-up wrote
	oracle *graph.Graph // the same file read once in set-up
	ranks  []float64
	labels []graph.VertexID
}

func (w *ingestPacked) setup(b *bench) error {
	dir, err := os.MkdirTemp(b.tmp, "ingest-")
	if err != nil {
		return err
	}
	w.dir, w.snap = dir, filepath.Join(dir, "edges.tsv")
	scale, m := b.scale(denseScale, denseScaleSmoke), b.scale(denseEdges, denseEdgesSmoke)
	g := b.generate(func() *graph.Graph { return graph.RMAT(scale, m, b.opt.seed) })
	if err := writeSNAP(w.snap, g, b.opt.seed); err != nil {
		return err
	}
	// ReadSNAP numbers vertices in order of first appearance, so the
	// oracle is computed on the file as read, not on g.
	if w.oracle, err = readSNAP(w.snap); err != nil {
		return err
	}
	w.ranks = seq.PageRank(w.oracle, alpha, ingestK, &seq.Ops{})
	w.labels = seq.Components(w.oracle, &seq.Ops{})
	return nil
}

// writeSNAP writes g's edges in seeded random order as a SNAP/TSV file:
// comment header, a comment every thousand lines, integer IDs with gaps.
func writeSNAP(path string, g *graph.Graph, seed int64) error {
	edges := g.UndirectedEdges()
	rand.New(rand.NewSource(seed)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "# Undirected graph: benchmark R-MAT\n# Nodes: %d Edges: %d\n# FromNodeId\tToNodeId\n", g.N(), len(edges))
	var line []byte
	for i, e := range edges {
		if i > 0 && i%1000 == 0 {
			fmt.Fprintf(bw, "%% %d edges so far\n", i)
		}
		line = strconv.AppendInt(line[:0], int64(e.U)*3+7, 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(e.V)*3+7, 10)
		line = append(line, '\n')
		bw.Write(line)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSNAP(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadSNAP(f, graph.SNAPOptions{})
}

func (w *ingestPacked) pass(b *bench, p *passStats) {
	vcsr := filepath.Join(w.dir, "graph.vcsr")
	values := filepath.Join(w.dir, "values.txt")
	defer os.Remove(vcsr)
	defer os.Remove(values)

	var g *graph.Graph
	if b.stage(p, "graph.parse", func() (err error) {
		if g, err = readSNAP(w.snap); err != nil {
			return err
		}
		return sameShape(g.N(), g.M(), w.oracle)
	}) != nil {
		return
	}
	var flat, packed *graph.CSR
	b.stage(p, "graph.csr_build", func() error {
		flat = g.CSR()
		flat.EnsureIn()
		p.c["graph.edge_bytes_flat"] = float64(flat.EdgeBytes())
		return sameShape(flat.N(), flat.M(), w.oracle)
	})
	b.stage(p, "graph.pack", func() error {
		packed = graph.CompressCSR(flat)
		packed.EnsureIn() // pack the transpose too, as the flat build did
		p.c["graph.edge_bytes_packed"] = float64(packed.EdgeBytes())
		if !packed.Packed() {
			return fmt.Errorf("CompressCSR returned a flat snapshot")
		}
		return nil
	})
	if b.stage(p, "graph.vcsr_write", func() error {
		f, err := os.Create(vcsr)
		if err != nil {
			return err
		}
		if err := graph.WriteCSRFile(f, packed); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}) != nil {
		return
	}
	var mapped *graph.Graph
	if b.stage(p, "graph.vcsr_open", func() (err error) {
		if mapped, err = graph.OpenCSRFile(vcsr); err != nil {
			return err
		}
		return sameShape(mapped.N(), mapped.M(), w.oracle)
	}) != nil {
		return
	}
	defer mapped.Close()

	ranks := b.runEngineOp(on("packed", pagerankOp(mapped, "pregel-pull", ingestK, b.w, w.ranks, 1e-9)), p).ranks
	labels := b.runEngineOp(on("packed", ccOp(mapped, "pregel", b.w, true, w.labels)), p).labels
	if ranks == nil || labels == nil {
		return
	}
	b.stage(p, "bench.write_values", func() error {
		f, err := os.Create(values)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		var line []byte
		for v := range ranks {
			line = strconv.AppendInt(line[:0], int64(v), 10)
			line = append(line, '\t')
			line = strconv.AppendFloat(line, ranks[v], 'g', -1, 64)
			line = append(line, '\t')
			line = strconv.AppendInt(line, int64(labels[v]), 10)
			line = append(line, '\n')
			bw.Write(line)
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}

func sameShape(n, m int, want *graph.Graph) error {
	if n != want.N() || m != want.M() {
		return fmt.Errorf("got n=%d m=%d, want n=%d m=%d", n, m, want.N(), want.M())
	}
	return nil
}

// attribute measures the packed tax once: the same PageRank on the flat
// and on the packed snapshot of the graph the passes ingest.
func (w *ingestPacked) attribute(b *bench, p *passStats) {
	b.attributeGraph(w.oracle)
	packed := graph.AdoptCSR(graph.CompressCSR(w.oracle.CSR()))
	b.runEngineOp(on("flat", pagerankOp(w.oracle, "pregel-pull", ingestK, b.w, w.ranks, 1e-9)), p)
	b.runEngineOp(on("packed", pagerankOp(packed, "pregel-pull", ingestK, b.w, w.ranks, 1e-9)), p)
}

func (w *ingestPacked) close() { os.RemoveAll(w.dir) }
