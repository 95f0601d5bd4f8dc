package click

import (
	"fmt"
	"sort"
	"strings"

	"vsd/internal/ir"
)

// Instance is one element in a pipeline: a named instantiation of an
// element class with its configuration compiled to an ir.Program.
type Instance struct {
	name  string
	class string
	cfg   string
	prog  *ir.Program
}

// NewInstance wraps a compiled program as a pipeline element.
func NewInstance(name, class, cfg string, prog *ir.Program) *Instance {
	return &Instance{name: name, class: class, cfg: cfg, prog: prog}
}

// Name returns the instance name (unique within a pipeline).
func (e *Instance) Name() string { return e.name }

// Class returns the element class name.
func (e *Instance) Class() string { return e.class }

// Config returns the raw configuration string.
func (e *Instance) Config() string { return e.cfg }

// Program returns the element body.
func (e *Instance) Program() *ir.Program { return e.prog }

// SummaryKey identifies the Step-1 summary this element can share:
// instances whose programs agree up to their static tables' ranges have
// interchangeable segment summaries. This is the paper's "we process
// each element once, even if it may be called from different points in
// the pipeline". The key is the compiled program's summary fingerprint
// (ir.Program.SummaryFingerprint), not the class+config string: two
// registries (or a re-registered class) binding the same name to
// different element code can never alias each other's summaries,
// identical programs registered under different names still share one,
// and so do two route tables with the same value set.
func (e *Instance) SummaryKey() ir.Fingerprint { return e.prog.SummaryFingerprint() }

// Constructor builds an element program from a configuration string.
type Constructor func(cfg string) (*ir.Program, error)

// Registry maps element class names to constructors.
type Registry struct {
	classes map[string]Constructor
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{classes: map[string]Constructor{}} }

// Register adds a class; it panics on duplicates (registration happens
// at init time).
func (r *Registry) Register(class string, c Constructor) {
	if _, dup := r.classes[class]; dup {
		panic(fmt.Sprintf("click: duplicate element class %q", class))
	}
	r.classes[class] = c
}

// Classes returns the sorted registered class names.
func (r *Registry) Classes() []string {
	out := make([]string, 0, len(r.classes))
	for c := range r.classes {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Make instantiates class with the given configuration.
func (r *Registry) Make(name, class, cfg string) (*Instance, error) {
	c, ok := r.classes[class]
	if !ok {
		return nil, fmt.Errorf("click: unknown element class %q", class)
	}
	prog, err := c(cfg)
	if err != nil {
		return nil, fmt.Errorf("click: %s :: %s(%s): %w", name, class, cfg, err)
	}
	return &Instance{name: name, class: class, cfg: cfg, prog: prog}, nil
}

// Fingerprint returns a deterministic content hash of the whole
// pipeline: every element's program fingerprint and instance name plus
// the topology. Two pipelines share a fingerprint iff verification
// would produce identical reports (instance names appear in witness
// paths, so they are part of the identity). Batch admission uses this
// to deduplicate resubmitted configurations.
func (p *Pipeline) Fingerprint() ir.Fingerprint {
	return p.fingerprint("vsd/click/v1", (*ir.Program).Fingerprint)
}

// SummaryFingerprint is Fingerprint over the elements' summary
// fingerprints: the pipeline as Step 2 sees it, blind to the ranges of
// its static tables. Step-2 certificate keys hash it.
func (p *Pipeline) SummaryFingerprint() ir.Fingerprint {
	return p.fingerprint("vsd/click/values/v1", (*ir.Program).SummaryFingerprint)
}

func (p *Pipeline) fingerprint(format string, progFP func(*ir.Program) ir.Fingerprint) ir.Fingerprint {
	h := ir.NewHasher(format)
	h.U64(uint64(len(p.Elements)))
	for _, e := range p.Elements {
		h.Str(e.Name())
		h.Fingerprint(progFP(e.Program()))
	}
	h.U64(uint64(p.Entry))
	for _, edges := range p.Edges {
		h.U64(uint64(len(edges)))
		for _, edge := range edges {
			h.U64(uint64(int64(edge.To) + 1))
			h.U64(uint64(edge.ToPort))
		}
	}
	return h.Sum()
}

// Edge connects an output port to an element's input port.
type Edge struct {
	To     int // downstream element index, -1 when unconnected (egress)
	ToPort int // downstream input port
}

// Pipeline is a validated element DAG.
type Pipeline struct {
	Elements []*Instance
	// Edges[i][p] is the connection of element i's output port p.
	Edges [][]Edge
	// Entry is the index of the unique element with no incoming edges.
	Entry int
	// egress assigns a stable id to every unconnected output port.
	egress map[[2]int]int
	// egrNames caches the rendered name per egress id; the dataplane
	// reads it per packet, so it must not format on demand.
	egrNames []string
	nEgr     int
}

// NewPipeline builds and validates a pipeline. Connections are given as
// (from, fromPort, to, toPort) tuples.
type Connection struct {
	From, FromPort, To, ToPort int
}

// Build assembles a pipeline from elements and connections, validating
// the paper's structural rules: ports in range, each output port
// connected at most once, a unique entry element, and acyclicity.
func Build(elements []*Instance, conns []Connection) (*Pipeline, error) {
	names := map[string]bool{}
	for _, e := range elements {
		if names[e.Name()] {
			return nil, fmt.Errorf("click: duplicate element name %q", e.Name())
		}
		names[e.Name()] = true
	}
	p := &Pipeline{Elements: elements, Edges: make([][]Edge, len(elements))}
	for i, e := range elements {
		p.Edges[i] = make([]Edge, e.Program().NumOut)
		for j := range p.Edges[i] {
			p.Edges[i][j] = Edge{To: -1}
		}
	}
	hasIncoming := make([]bool, len(elements))
	for _, c := range conns {
		if c.From < 0 || c.From >= len(elements) || c.To < 0 || c.To >= len(elements) {
			return nil, fmt.Errorf("click: connection references unknown element (%d -> %d)", c.From, c.To)
		}
		fe, te := elements[c.From], elements[c.To]
		if c.FromPort < 0 || c.FromPort >= fe.Program().NumOut {
			return nil, fmt.Errorf("click: %s has no output port %d", fe.Name(), c.FromPort)
		}
		if c.ToPort < 0 || c.ToPort >= te.Program().NumIn {
			return nil, fmt.Errorf("click: %s has no input port %d", te.Name(), c.ToPort)
		}
		if p.Edges[c.From][c.FromPort].To != -1 {
			return nil, fmt.Errorf("click: output port %s[%d] connected twice", fe.Name(), c.FromPort)
		}
		p.Edges[c.From][c.FromPort] = Edge{To: c.To, ToPort: c.ToPort}
		hasIncoming[c.To] = true
	}
	// Unique entry.
	entry := -1
	for i := range elements {
		if !hasIncoming[i] {
			if entry != -1 {
				return nil, fmt.Errorf("click: multiple entry elements (%s and %s)",
					elements[entry].Name(), elements[i].Name())
			}
			entry = i
		}
	}
	if entry == -1 {
		return nil, fmt.Errorf("click: no entry element (cycle spans the whole graph)")
	}
	p.Entry = entry
	if err := p.checkAcyclic(); err != nil {
		return nil, err
	}
	p.numberEgress()
	return p, nil
}

func (p *Pipeline) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(p.Elements))
	var visit func(i int) error
	visit = func(i int) error {
		color[i] = gray
		for _, e := range p.Edges[i] {
			if e.To < 0 {
				continue
			}
			switch color[e.To] {
			case gray:
				return fmt.Errorf("click: cycle through %s", p.Elements[e.To].Name())
			case white:
				if err := visit(e.To); err != nil {
					return err
				}
			}
		}
		color[i] = black
		return nil
	}
	for i := range p.Elements {
		if color[i] == white {
			if err := visit(i); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Pipeline) numberEgress() {
	p.egress = map[[2]int]int{}
	for i := range p.Elements {
		for port, e := range p.Edges[i] {
			if e.To < 0 {
				p.egress[[2]int{i, port}] = p.nEgr
				p.egrNames = append(p.egrNames, fmt.Sprintf("%s[%d]", p.Elements[i].Name(), port))
				p.nEgr++
			}
		}
	}
}

// NumEgress returns the number of pipeline egress points (unconnected
// output ports).
func (p *Pipeline) NumEgress() int { return p.nEgr }

// EgressID returns the egress id of element elem's output port, or -1
// if that port is connected.
func (p *Pipeline) EgressID(elem, port int) int {
	if id, ok := p.egress[[2]int{elem, port}]; ok {
		return id
	}
	return -1
}

// EgressName renders an egress id for reports ("rt[2]").
func (p *Pipeline) EgressName(id int) string {
	if id >= 0 && id < len(p.egrNames) {
		return p.egrNames[id]
	}
	return fmt.Sprintf("egress%d", id)
}

// Path is one element-level path through the pipeline: the sequence of
// elements a packet traverses and the output port taken at each.
type Path struct {
	Elems  []int // element indices, starting at Entry
	Ports  []int // output port taken at each element
	Egress int   // pipeline egress id reached
}

// String renders the path for reports.
func (p *Pipeline) PathString(path Path) string {
	var b strings.Builder
	for i, e := range path.Elems {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s[%d]", p.Elements[e].Name(), path.Ports[i])
	}
	return b.String()
}

// Paths enumerates every element-level path from the entry to an egress.
// The count is exponential in branching depth, but pipeline graphs are
// shallow; limit guards against misuse (0 means no limit).
func (p *Pipeline) Paths(limit int) ([]Path, error) {
	var out []Path
	var walk func(elem int, elems, ports []int) error
	walk = func(elem int, elems, ports []int) error {
		elems = append(elems, elem)
		for port, e := range p.Edges[elem] {
			ports2 := append(append([]int{}, ports...), port)
			if e.To < 0 {
				out = append(out, Path{
					Elems:  append([]int{}, elems...),
					Ports:  ports2,
					Egress: p.EgressID(elem, port),
				})
				if limit > 0 && len(out) > limit {
					return fmt.Errorf("click: more than %d pipeline paths", limit)
				}
				continue
			}
			if err := walk(e.To, elems, ports2); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(p.Entry, nil, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// String renders the pipeline topology.
func (p *Pipeline) String() string {
	var b strings.Builder
	for i, e := range p.Elements {
		fmt.Fprintf(&b, "%s :: %s(%s)", e.Name(), e.Class(), e.Config())
		for port, edge := range p.Edges[i] {
			if edge.To >= 0 {
				fmt.Fprintf(&b, "  [%d]->[%d]%s", port, edge.ToPort, p.Elements[edge.To].Name())
			} else {
				fmt.Fprintf(&b, "  [%d]->egress%d", port, p.EgressID(i, port))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
