package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
)

// span is one line of a trace file. Spans of one request share an id; parent
// names the span that caused this one ("" for the root). Times are ns on the
// run clock. Self is the span's duration minus its children's.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Attr   string `json:"attr,omitempty"` // what the request was: op kind or cell
}

// traceWriter keeps spans in memory until the run ends. Callers add the
// spans of one request back to back.
type traceWriter struct{ spans []span }

func newTraceWriter() *traceWriter { return &traceWriter{} }

func (t *traceWriter) add(s span) {
	if len(t.spans) < maxSpanLines {
		t.spans = append(t.spans, s)
	}
}

// write fills in self times and writes one JSON object per line.
func (t *traceWriter) write(path string) error {
	for lo := 0; lo < len(t.spans); {
		hi := lo
		for hi < len(t.spans) && t.spans[hi].ID == t.spans[lo].ID {
			hi++
		}
		for i := lo; i < hi; i++ {
			s := &t.spans[i]
			s.Self = s.End - s.Start
			for j := lo; j < hi; j++ {
				if c := &t.spans[j]; j != i && c.Parent == s.Name {
					s.Self -= c.End - c.Start
				}
			}
		}
		lo = hi
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
