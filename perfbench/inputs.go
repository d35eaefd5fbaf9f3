package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/native"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// query is one statement of a workload's stream. hot is the index into
// xmark.Queries for the hot mix and -1 for an ad-hoc point query.
type query struct {
	text string
	hot  int
}

// adhocTemplates are the point-query shapes of xmark-adhoc. Each is
// filled with an @id present in the base document, so the stream's
// distinct texts far outnumber the engine's 256 cached plans, and each
// selects one element by its id, so execution stays short and
// translation and planning dominate. Between them they cover a
// descendant step, child paths, a horizontal axis and a positional
// predicate.
var adhocTemplates = []struct {
	format string
	elem   string // element whose @id fills the template
}{
	{"/site/regions/*/item[@id='%s']/description//keyword", "item"},
	{"/site/people/person[@id='%s']/name", "person"},
	{"/site/open_auctions/open_auction[@id='%s']/bidder/preceding-sibling::bidder", "open_auction"},
	{"/site/regions/*/item[@id='%s']/mailbox/mail/from", "item"},
	{"/site/open_auctions/open_auction[@id='%s']/bidder[1]/increase", "open_auction"},
}

// Sub-seeds keep the document, the small document and each stream on
// independent random sequences derived from the one --seed.
const (
	smallSeedOffset = 1_000_003
	streamSeedXor   = 0x5eed
)

// genDoc generates an XMark document and its serialized size, the
// "XML bytes loaded" base of disk_bytes_per_xml_byte.
func genDoc(scale float64, seed int64) (*xmltree.Document, int64, error) {
	doc, err := xmark.Generate(xmark.Config{Scale: scale, Seed: seed})
	if err != nil {
		return nil, 0, fmt.Errorf("generating xmark scale %g seed %d: %w", scale, seed, err)
	}
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		return nil, 0, fmt.Errorf("serializing xmark document: %w", err)
	}
	return doc, int64(buf.Len()), nil
}

// hotStream is the seeded shuffled round-robin over the hot mix: each
// pass visits every query once, in a fresh permutation.
type hotStream struct {
	r    *rand.Rand
	pass []int
}

func newHotStream(seed int64) *hotStream {
	return &hotStream{r: rand.New(rand.NewSource(seed ^ streamSeedXor))}
}

func (s *hotStream) next() query {
	if len(s.pass) == 0 {
		s.pass = s.r.Perm(len(xmark.Queries))
	}
	i := s.pass[0]
	s.pass = s.pass[1:]
	return query{text: xmark.Queries[i].XPath, hot: i}
}

// adhocPool lists every template filled with every matching id in doc.
func adhocPool(doc *xmltree.Document) []string {
	ids := map[string][]string{}
	for _, n := range doc.Nodes() {
		if n.Kind != xmltree.Element {
			continue
		}
		if id, ok := n.Attr("id"); ok {
			ids[n.Name] = append(ids[n.Name], id)
		}
	}
	var pool []string
	for _, t := range adhocTemplates {
		for _, id := range ids[t.elem] {
			pool = append(pool, fmt.Sprintf(t.format, id))
		}
	}
	return pool
}

// adhocStream walks the pool in seeded shuffled passes, so within a
// pass every statement text is new.
type adhocStream struct {
	r     *rand.Rand
	pool  []string
	order []int
}

func newAdhocStream(seed int64, pool []string) *adhocStream {
	return &adhocStream{r: rand.New(rand.NewSource(seed ^ streamSeedXor)), pool: pool}
}

func (s *adhocStream) next() query {
	if len(s.order) == 0 {
		s.order = s.r.Perm(len(s.pool))
	}
	i := s.order[0]
	s.order = s.order[1:]
	return query{text: s.pool[i], hot: -1}
}

// oracleIDs evaluates src with the native evaluator, mapping text
// nodes to their parent elements (the relational store's convention).
func oracleIDs(ev *native.Evaluator, src string) ([]int64, error) {
	e, err := xpath.Parse(src)
	if err != nil {
		return nil, err
	}
	items, err := ev.Eval(e)
	if err != nil {
		return nil, fmt.Errorf("oracle %q: %w", src, err)
	}
	seen := map[int64]bool{}
	ids := make([]int64, 0, len(items))
	for _, it := range items {
		id := it.Node.ID
		if !it.IsAttr() && it.Node.Kind == xmltree.Text {
			id = it.Node.Parent.ID
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids, nil
}

func sameIDs(a []int64, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
