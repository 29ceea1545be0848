package main

// Oracles: plain computations over entries, made apart from the program.
// They share only the data representation (model.Entry, model.DN) with
// it — no parser, planner, store, engine or application code — and they
// follow the definitions directly (Example 2.2; Definitions 4.1, 5.1,
// 6.1, 6.2 and 7.1), trading speed for obviousness where the two
// conflict.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/model"
)

// dirModel is an entry set indexed by reverse-DN key, with parent links.
// Provision keeps one per run and applies only acknowledged writes.
type dirModel struct {
	byKey    map[string]*model.Entry
	children map[string]map[string]bool // parent key -> child keys
	// ancestors lists each entry's proper ancestors by DN, nearest
	// first, present in the model or not.
	ancestors map[string][]string
	byUID     map[string]map[string]bool // uid value -> keys of entries holding it
}

func newDirModel(entries []*model.Entry) *dirModel {
	m := &dirModel{byKey: make(map[string]*model.Entry), children: make(map[string]map[string]bool),
		ancestors: make(map[string][]string), byUID: make(map[string]map[string]bool)}
	for _, e := range entries {
		m.add(e)
	}
	return m
}

func (m *dirModel) add(e *model.Entry) {
	m.byKey[e.Key()] = e
	var chain []string
	for d := e.DN().Parent(); len(d) > 0; d = d.Parent() {
		chain = append(chain, d.Key())
	}
	m.ancestors[e.Key()] = chain
	for _, v := range e.Values("uid") {
		if m.byUID[v.Str()] == nil {
			m.byUID[v.Str()] = make(map[string]bool)
		}
		m.byUID[v.Str()][e.Key()] = true
	}
	p := e.DN().Parent().Key()
	if m.children[p] == nil {
		m.children[p] = make(map[string]bool)
	}
	m.children[p][e.Key()] = true
}

func (m *dirModel) remove(key string) {
	e := m.byKey[key]
	delete(m.byKey, key)
	delete(m.ancestors, key)
	for _, v := range e.Values("uid") {
		delete(m.byUID[v.Str()], key)
	}
	delete(m.children[e.DN().Parent().Key()], key)
}

// sortedChildren returns the present children of key in key order.
func (m *dirModel) sortedChildren(key string) []*model.Entry {
	var out []*model.Entry
	for k := range m.children[key] {
		out = append(out, m.byKey[k])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// --- Example 2.2: dial-by-name ---

// routeAnswer is a dial's outcome reduced to comparable strings:
// subscriber, QHP and appearance DN keys, or the kind of miss.
type routeAnswer struct {
	miss string // "", "no-subscriber" or "no-qhp"
	sub  string
	qhp  string
	apps []string
}

func (a routeAnswer) String() string {
	if a.miss != "" {
		return a.miss
	}
	return fmt.Sprintf("%s|%s|%s", a.sub, a.qhp, strings.Join(a.apps, ";"))
}

func hasClass(e *model.Entry, c string) bool {
	for _, v := range e.Values("objectclass") {
		if strings.EqualFold(v.Str(), c) {
			return true
		}
	}
	return false
}

func intValues(e *model.Entry, attr string) []int64 {
	var out []int64
	for _, v := range e.Values(attr) {
		if v.Kind() == model.KindInt {
			out = append(out, v.Int())
		}
	}
	return out
}

// priorityOf reads priority, absent meaning least preferred.
func priorityOf(e *model.Entry) int64 {
	if ps := intValues(e, "priority"); len(ps) > 0 {
		return ps[0]
	}
	return 1<<62 - 1
}

// qhpApplies is the Section 3.5 reading of a QHP: it constrains only
// the attributes it carries. The benchmark's calls name no caller group
// and no medium, so a QHP restricted to a caller group never applies
// and mediaType never excludes one.
func qhpApplies(q *model.Entry, c call) bool {
	if len(q.Values("callerGroup")) > 0 {
		return false
	}
	if st := intValues(q, "startTime"); len(st) > 0 && c.time < st[0] {
		return false
	}
	if et := intValues(q, "endTime"); len(et) > 0 && c.time > et[0] {
		return false
	}
	if days := intValues(q, "daysOfWeek"); len(days) > 0 {
		for _, d := range days {
			if d == c.day {
				return true
			}
		}
		return false
	}
	return true
}

// oracleRoute answers a dial from the model: the callee's subscriber
// entry below base, its most preferred applicable QHP (lowest priority
// value), and that QHP's call appearances by ascending priority.
func (m *dirModel) oracleRoute(base string, c call) routeAnswer {
	baseKey := model.MustParseDN(base).Key()
	var sub *model.Entry
	for k := range m.byUID[c.uid] {
		e := m.byKey[k]
		if anc := m.ancestors[k]; len(anc) > 0 && anc[0] == baseKey && hasClass(e, "TOPSSubscriber") && (sub == nil || k < sub.Key()) {
			sub = e
		}
	}
	if sub == nil {
		return routeAnswer{miss: "no-subscriber"}
	}
	var best *model.Entry
	for _, q := range m.sortedChildren(sub.Key()) {
		if hasClass(q, "QHP") && qhpApplies(q, c) && (best == nil || priorityOf(q) < priorityOf(best)) {
			best = q
		}
	}
	if best == nil {
		return routeAnswer{miss: "no-qhp"}
	}
	var apps []*model.Entry
	for _, e := range m.sortedChildren(best.Key()) {
		if hasClass(e, "callAppearance") {
			apps = append(apps, e)
		}
	}
	sort.SliceStable(apps, func(i, j int) bool { return priorityOf(apps[i]) < priorityOf(apps[j]) })
	ans := routeAnswer{sub: sub.Key(), qhp: best.Key()}
	for _, a := range apps {
		ans.apps = append(ans.apps, a.Key())
	}
	return ans
}

// --- Queries: Definitions 4.1 (atomic), 5.1 (hierarchical), 6.1/6.2
// (aggregate selection) and 7.1 (embedded references) ---

// oq is a query the oracle evaluates; String renders it in the paper's
// surface syntax, which is what the program receives.
type oq interface {
	String() string
	eval(m *dirModel) map[string]bool
}

// atom is (base ? scope ? attr op value) with op one of =, <=, >=.
type atom struct {
	base, scope, attr, op, value string
}

func (a atom) String() string {
	return fmt.Sprintf("(%s ? %s ? %s%s%s)", a.base, a.scope, a.attr, a.op, a.value)
}

func (a atom) eval(m *dirModel) map[string]bool {
	baseKey := model.MustParseDN(a.base).Key()
	want, err := strconv.ParseInt(a.value, 10, 64)
	isInt := err == nil
	out := make(map[string]bool)
	for k, e := range m.byKey {
		if inScope(m, k, baseKey, a.scope) && a.matches(e, want, isInt) {
			out[k] = true
		}
	}
	return out
}

// inScope: base is the base entry; one adds its children; sub adds
// every descendant.
func inScope(m *dirModel, key, baseKey, scope string) bool {
	if key == baseKey {
		return true
	}
	for i, anc := range m.ancestors[key] {
		if anc == baseKey {
			return scope == "sub" || (scope == "one" && i == 0)
		}
	}
	return false
}

// matches applies the filter to an entry; want is the operand read as
// an integer when isInt.
func (a atom) matches(e *model.Entry, want int64, isInt bool) bool {
	attr := strings.ToLower(a.attr)
	if attr == "objectclass" {
		return a.op == "=" && hasClass(e, a.value)
	}
	for _, v := range e.Values(attr) {
		switch v.Kind() {
		case model.KindInt:
			if !isInt {
				return false
			}
			if (a.op == "=" && v.Int() == want) || (a.op == "<=" && v.Int() <= want) || (a.op == ">=" && v.Int() >= want) {
				return true
			}
		case model.KindString:
			if a.op == "=" && v.Str() == a.value {
				return true
			}
		}
	}
	return false
}

// boolQ is (& Q1 Q2), (| Q1 Q2) or (- Q1 Q2).
type boolQ struct {
	op     string
	q1, q2 oq
}

func (b boolQ) String() string { return fmt.Sprintf("(%s %s %s)", b.op, b.q1, b.q2) }

func (b boolQ) eval(m *dirModel) map[string]bool {
	r1, r2 := b.q1.eval(m), b.q2.eval(m)
	out := make(map[string]bool)
	for k := range r1 {
		if (b.op == "&" && r2[k]) || (b.op == "-" && !r2[k]) || b.op == "|" {
			out[k] = true
		}
	}
	if b.op == "|" {
		for k := range r2 {
			out[k] = true
		}
	}
	return out
}

// aggSel is one aggregate selection filter of the forms the audit uses.
type aggSel struct {
	kind string // "count>" | "min=minmin" | "count($2)>=" | "max($2)<"
	attr string
	k    int64
}

func (s *aggSel) String() string {
	switch s.kind {
	case "count>":
		return fmt.Sprintf("count(%s) > %d", s.attr, s.k)
	case "min=minmin":
		return fmt.Sprintf("min(%s)=min(min(%s))", s.attr, s.attr)
	case "count($2)>=":
		return fmt.Sprintf("count($2) >= %d", s.k)
	default: // "max($2)<"
		return fmt.Sprintf("max($2.%s) < %d", s.attr, s.k)
	}
}

// selectWitnessed keeps the entries whose witness sets satisfy a
// structural aggregate selection (nil: a non-empty witness set, the
// plain L1 operator).
func (s *aggSel) selectWitnessed(m *dirModel, wit map[string]map[string]bool) map[string]bool {
	out := make(map[string]bool)
	for k, ws := range wit {
		if len(ws) == 0 {
			continue
		}
		var vals []int64
		for w := range ws {
			if s != nil {
				vals = append(vals, intValues(m.byKey[w], s.attr)...)
			}
		}
		ok := true
		switch {
		case s == nil:
		case s.kind == "count($2)>=":
			ok = int64(len(ws)) >= s.k
		case s.kind == "max($2)<":
			ok = len(vals) > 0 && maxOf(vals) < s.k
		default:
			panic("oracle: selection " + s.kind + " is not structural")
		}
		if ok {
			out[k] = true
		}
	}
	return out
}

func minOf(v []int64) int64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(v []int64) int64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// hier is a hierarchical selection: (p|c|a|d Q1 Q2) or (ac|dc Q1 Q2 Q3),
// optionally with a structural aggregate selection. An entry e1 of Q1
// qualifies through witnesses e2 of Q2: its parent (p), a child (c), a
// proper ancestor (a, ac) or a proper descendant (d, dc); for ac and dc
// no entry of Q3 may lie strictly between e1 and e2.
type hier struct {
	op         string
	q1, q2, q3 oq
	sel        *aggSel
}

func (h hier) String() string {
	s := fmt.Sprintf("(%s %s %s", h.op, h.q1, h.q2)
	if h.q3 != nil {
		s += " " + h.q3.String()
	}
	if h.sel != nil {
		s += " " + h.sel.String()
	}
	return s + ")"
}

func (h hier) eval(m *dirModel) map[string]bool {
	r1, r2 := h.q1.eval(m), h.q2.eval(m)
	r3 := map[string]bool{}
	if h.q3 != nil {
		r3 = h.q3.eval(m)
	}
	wit := make(map[string]map[string]bool)
	addWit := func(e1, e2 string) {
		if wit[e1] == nil {
			wit[e1] = make(map[string]bool)
		}
		wit[e1][e2] = true
	}
	// ancestors walks the proper ancestors of key by DN, nearest first,
	// visiting those present with their level above key and whether a
	// Q3 entry lies strictly between.
	ancestors := func(key string, fn func(anc string, level int, blocked bool) bool) {
		blocked := false
		for i, k := range m.ancestors[key] {
			if _, ok := m.byKey[k]; !ok {
				continue
			}
			if !fn(k, i+1, blocked) {
				return
			}
			if r3[k] {
				blocked = true
			}
		}
	}
	switch h.op {
	case "p", "a", "ac":
		for e1 := range r1 {
			ancestors(e1, func(anc string, level int, blocked bool) bool {
				if h.op == "p" {
					if level == 1 && r2[anc] {
						addWit(e1, anc)
					}
					return false
				}
				if r2[anc] && !(h.op == "ac" && blocked) {
					addWit(e1, anc)
				}
				return true
			})
		}
	case "c", "d", "dc":
		for e2 := range r2 {
			ancestors(e2, func(anc string, level int, blocked bool) bool {
				if h.op == "c" {
					if level == 1 && r1[anc] {
						addWit(anc, e2)
					}
					return false
				}
				if r1[anc] && !(h.op == "dc" && blocked) {
					addWit(anc, e2)
				}
				return true
			})
		}
	default:
		panic("oracle: unknown hierarchical operator " + h.op)
	}
	return h.sel.selectWitnessed(m, wit)
}

// simpleAgg is (g Q sel): selection on each entry's own values, where
// min(min(a)) ranges over the whole of Q.
type simpleAgg struct {
	q   oq
	sel *aggSel
}

func (g simpleAgg) String() string { return fmt.Sprintf("(g %s %s)", g.q, g.sel) }

func (g simpleAgg) eval(m *dirModel) map[string]bool {
	r := g.q.eval(m)
	out := make(map[string]bool)
	switch g.sel.kind {
	case "count>":
		for k := range r {
			if int64(len(m.byKey[k].Values(g.sel.attr))) > g.sel.k {
				out[k] = true
			}
		}
	case "min=minmin":
		var global []int64
		for k := range r {
			if vs := intValues(m.byKey[k], g.sel.attr); len(vs) > 0 {
				global = append(global, minOf(vs))
			}
		}
		for k := range r {
			if vs := intValues(m.byKey[k], g.sel.attr); len(vs) > 0 && minOf(vs) == minOf(global) {
				out[k] = true
			}
		}
	default:
		panic("oracle: selection " + g.sel.kind + " is not simple")
	}
	return out
}

// embedRef is (vd Q1 Q2 attr) — entries of Q1 whose attr holds the DN of
// a Q2 entry — or (dv Q1 Q2 attr) — entries of Q1 whose DN a Q2 entry
// holds in attr; the matched Q2 entries are the witnesses.
type embedRef struct {
	op     string
	q1, q2 oq
	attr   string
	sel    *aggSel
}

func (r embedRef) String() string {
	s := fmt.Sprintf("(%s %s %s %s", r.op, r.q1, r.q2, r.attr)
	if r.sel != nil {
		s += " " + r.sel.String()
	}
	return s + ")"
}

func dnRefs(e *model.Entry, attr string) []string {
	var out []string
	for _, v := range e.Values(attr) {
		if v.Kind() == model.KindDN {
			out = append(out, v.DN().Key())
		}
	}
	return out
}

func (r embedRef) eval(m *dirModel) map[string]bool {
	r1, r2 := r.q1.eval(m), r.q2.eval(m)
	wit := make(map[string]map[string]bool)
	addWit := func(e1, e2 string) {
		if wit[e1] == nil {
			wit[e1] = make(map[string]bool)
		}
		wit[e1][e2] = true
	}
	if r.op == "vd" {
		for e1 := range r1 {
			for _, ref := range dnRefs(m.byKey[e1], r.attr) {
				if r2[ref] {
					addWit(e1, ref)
				}
			}
		}
	} else {
		for e2 := range r2 {
			for _, ref := range dnRefs(m.byKey[e2], r.attr) {
				if r1[ref] {
					addWit(ref, e2)
				}
			}
		}
	}
	return r.sel.selectWitnessed(m, wit)
}

// answerKeys evaluates q and returns its answer in reverse-DN key order.
func answerKeys(m *dirModel, q oq) []string {
	set := q.eval(m)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
