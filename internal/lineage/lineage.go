// Package lineage implements fine-grained lineage tracing and the
// lineage-based reuse cache of SystemDS (Section 3.1 of the paper). Every
// executed logical operation is recorded as a lineage item referencing the
// lineage of its inputs; the resulting DAGs identify intermediates, enable
// reproducibility, and serve as cache keys for full and partial reuse of
// redundantly computed intermediates.
package lineage

import (
	"strconv"
	"strings"
	"sync"
)

// ItemKind distinguishes leaves (literals, input reads) from operation nodes.
type ItemKind int

// Lineage item kinds.
const (
	KindLiteral ItemKind = iota
	KindCreation
	KindInstruction
)

// Item is a node of a lineage DAG. Items are immutable after creation; each
// carries its structural hash, computed once at construction from its own
// fields and the stored hashes of its inputs (a Merkle hash), so hashing
// never walks the DAG.
type Item struct {
	Kind   ItemKind
	Opcode string
	Data   string // literal value, variable/file name, or extra operands (e.g. seeds)
	Inputs []*Item

	hash uint64
}

// NewLiteral creates a literal leaf item (constants, generated seeds).
func NewLiteral(data string) *Item {
	return newItem(KindLiteral, "lit", data, nil)
}

// NewCreation creates a leaf item for an external input (file read, named
// script input).
func NewCreation(op, data string) *Item {
	return newItem(KindCreation, op, data, nil)
}

// NewInstruction creates an operation item with the given inputs.
func NewInstruction(opcode, data string, inputs ...*Item) *Item {
	return newItem(KindInstruction, opcode, data, inputs)
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// newItem builds an item and its hash: FNV-1a over the kind, the
// length-prefixed opcode and data, the input count and the input hashes.
// Length prefixes keep distinct field splits ("ab"+"c" vs "a"+"bc") apart,
// and nothing pointer- or map-order-dependent enters the hash, so persisted
// stores can compare hashes across processes.
func newItem(kind ItemKind, opcode, data string, inputs []*Item) *Item {
	h := hashUint(fnvOffset64, uint64(kind))
	h = hashString(h, opcode)
	h = hashString(h, data)
	h = hashUint(h, uint64(len(inputs)))
	for _, in := range inputs {
		h = hashUint(h, in.hash)
	}
	return &Item{Kind: kind, Opcode: opcode, Data: data, Inputs: inputs, hash: h}
}

func hashUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	h = hashUint(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// Hash returns the structural hash over the item's opcode, data and
// transitive inputs. Identical computations produce identical hashes, which
// makes the hash usable as reuse-cache key.
func (it *Item) Hash() uint64 { return it.hash }

type itemPair struct{ a, b *Item }

// Equals reports whether two lineage DAGs are structurally identical. It is
// the exact guard against hash collisions: it stops at the first pair of
// nodes whose hashes differ and compares each pair of shared sub-DAGs only
// once, so it is linear in the DAG size.
func (it *Item) Equals(o *Item) bool {
	return equalItems(it, o, map[itemPair]bool{})
}

func equalItems(a, b *Item, equal map[itemPair]bool) bool {
	if a == b || equal[itemPair{a, b}] {
		return true
	}
	if a == nil || b == nil || a.hash != b.hash || a.Kind != b.Kind ||
		a.Opcode != b.Opcode || a.Data != b.Data || len(a.Inputs) != len(b.Inputs) {
		return false
	}
	for i := range a.Inputs {
		if !equalItems(a.Inputs[i], b.Inputs[i], equal) {
			return false
		}
	}
	equal[itemPair{a, b}] = true
	return true
}

// String renders the lineage DAG in a compact nested form, e.g.
// "tsmm(cbind(tread·X,tread·Z))". A node reached more than once is rendered
// at its first occurrence followed by a label and referenced by that label
// afterwards, e.g. "+(tread·X#1,#1)", so the rendering is linear in the DAG
// size. It is the verification key of the persistent lineage store.
func (it *Item) String() string {
	refs := map[*Item]int{}
	var count func(i *Item)
	count = func(i *Item) {
		refs[i]++
		if refs[i] > 1 {
			return
		}
		for _, in := range i.Inputs {
			count(in)
		}
	}
	count(it)
	var sb strings.Builder
	labels := map[*Item]int{}
	it.render(&sb, refs, labels)
	return sb.String()
}

func (it *Item) render(sb *strings.Builder, refs, labels map[*Item]int) {
	if l, ok := labels[it]; ok {
		sb.WriteString("#")
		sb.WriteString(strconv.Itoa(l))
		return
	}
	sb.WriteString(it.Opcode)
	if it.Data != "" {
		sb.WriteString("·")
		sb.WriteString(it.Data)
	}
	if len(it.Inputs) > 0 {
		sb.WriteString("(")
		for i, in := range it.Inputs {
			if i > 0 {
				sb.WriteString(",")
			}
			in.render(sb, refs, labels)
		}
		sb.WriteString(")")
	}
	if refs[it] > 1 {
		labels[it] = len(labels) + 1
		sb.WriteString("#")
		sb.WriteString(strconv.Itoa(labels[it]))
	}
}

// Tracer maintains the lineage items of the live variables of one execution
// context. Tracers are cheap to create; parfor workers and function calls get
// their own tracer seeded with the items of their inputs.
type Tracer struct {
	mu    sync.Mutex
	items map[string]*Item
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{items: map[string]*Item{}}
}

// Get returns the lineage item of a variable, creating a leaf item lazily for
// variables whose creation was not traced (e.g. external inputs bound via the
// API).
func (t *Tracer) Get(name string) *Item {
	t.mu.Lock()
	defer t.mu.Unlock()
	if it, ok := t.items[name]; ok {
		return it
	}
	it := NewCreation("tread", name)
	t.items[name] = it
	return it
}

// Set assigns the lineage item of a variable.
func (t *Tracer) Set(name string, it *Item) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.items[name] = it
}

// Copy returns a tracer with a copied variable map (items are shared, they
// are immutable).
func (t *Tracer) Copy() *Tracer {
	t.mu.Lock()
	defer t.mu.Unlock()
	cp := NewTracer()
	for k, v := range t.items {
		cp.items[k] = v
	}
	return cp
}
