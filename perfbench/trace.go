package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spanTotal is one span name's totals over the kept spans.
type spanTotal struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_us"`
	SelfS  float64 `json:"self_us"`
}

// resolve links every span to its parent, the innermost span on the same
// goroutine whose interval contains it (calls on one goroutine nest or are
// disjoint), and returns each name's total and self time: a span's self
// time is its duration minus its direct children's.
func resolve(spans []span) []spanTotal {
	byG := map[uint64][]int{}
	for i := range spans {
		spans[i].Parent = -1
		byG[spans[i].G] = append(byG[spans[i].G], i)
	}
	child := make([]int64, len(spans))
	for _, idx := range byG {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End > sb.End
		})
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 && spans[stack[len(stack)-1]].End <= spans[i].Start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && spans[stack[len(stack)-1]].End >= spans[i].End {
				p := stack[len(stack)-1]
				spans[i].Parent = p
				child[p] += spans[i].End - spans[i].Start
			}
			stack = append(stack, i)
		}
	}
	totals := map[string]*spanTotal{}
	for i, s := range spans {
		t := totals[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			totals[s.Name] = t
		}
		d := s.End - s.Start
		t.Count++
		t.TotalS += float64(d) / 1e3
		t.SelfS += float64(d-child[i]) / 1e3
	}
	var out []spanTotal
	for _, t := range totals {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes the kept spans, one JSON object a line, followed by
// the per-name totals, to dir/<workload>-seed<seed>.spans.jsonl.
func writeSpans(dir, workload string, seed int64, spans []span, totals []spanTotal) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	for _, t := range totals {
		if err := enc.Encode(map[string]spanTotal{"total": t}); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
