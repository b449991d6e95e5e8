package telemetry

import (
	"strconv"
	"sync"
)

// Source is anything with numbers to report. WriteMetrics writes the
// current value of each, in a fixed order, and must be safe to call while
// the owner keeps counting: sources read atomics, they take no lock a
// writer of theirs could hold for long.
type Source interface {
	WriteMetrics(w *Writer)
}

// Writer receives a Source's numbers as (name, value) pairs and named
// sub-sections, and renders them as one JSON object per section, members in
// the order written. AppendJSON makes the Writer; a Source only writes to
// the one it is handed. Names are identifiers chosen in code (printable
// ASCII, distinct within a section) and floats are finite; the Writer checks
// neither.
type Writer struct {
	buf []byte
}

// key starts a member: a comma unless it is the object's first, then the
// quoted name.
func (w *Writer) key(name string) {
	if w.buf[len(w.buf)-1] != '{' {
		w.buf = append(w.buf, ',')
	}
	w.buf = strconv.AppendQuote(w.buf, name)
	w.buf = append(w.buf, ':')
}

// Int writes a signed counter or gauge.
func (w *Writer) Int(name string, v int64) {
	w.key(name)
	w.buf = strconv.AppendInt(w.buf, v, 10)
}

// Uint writes an unsigned counter.
func (w *Writer) Uint(name string, v uint64) {
	w.key(name)
	w.buf = strconv.AppendUint(w.buf, v, 10)
}

// Float writes a derived value: a mean, a quantile in scaled units.
func (w *Writer) Float(name string, v float64) {
	w.key(name)
	w.buf = strconv.AppendFloat(w.buf, v, 'f', -1, 64)
}

// Section writes everything src reports as a nested object under name.
func (w *Writer) Section(name string, src Source) {
	w.key(name)
	w.buf = append(w.buf, '{')
	src.WriteMetrics(w)
	w.buf = append(w.buf, '}')
}

// AppendJSON appends src, rendered as a JSON object, to dst.
func AppendJSON(dst []byte, src Source) []byte {
	w := Writer{buf: append(dst, '{')}
	src.WriteMetrics(&w)
	return append(w.buf, '}')
}

// Registry is a Source made of named sections: what a server holds so that
// each subsystem registers its own section and the endpoint renders exactly
// the sections registered with it. The zero value is empty and ready.
type Registry struct {
	mu       sync.Mutex
	sections []section
}

type section struct {
	name string
	src  Source
}

// Register adds src as the section called name, after those already
// registered.
func (r *Registry) Register(name string, src Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sections = append(r.sections, section{name, src})
}

// WriteMetrics writes every registered section, in registration order.
func (r *Registry) WriteMetrics(w *Writer) {
	r.mu.Lock()
	sections := r.sections // append-only: the prefix read here never changes
	r.mu.Unlock()
	for _, s := range sections {
		w.Section(s.name, s.src)
	}
}
