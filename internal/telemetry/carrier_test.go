package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

type leaves struct{}

func (leaves) WriteMetrics(w *Writer) {
	w.Int("gauge", -3)
	w.Uint("counter", 1<<63)
	w.Float("mean", 428.7)
	w.Float("big", 3e8)
}

type nested struct{}

func (nested) WriteMetrics(w *Writer) {
	w.Uint("top", 1)
	w.Section("0:synth", leaves{})
	w.Section("empty", &Registry{})
	w.Int("after", 2)
}

func TestAppendJSON(t *testing.T) {
	const want = `{"top":1,"0:synth":{"gauge":-3,"counter":9223372036854775808,"mean":428.7,"big":300000000},"empty":{},"after":2}`
	got := AppendJSON([]byte("x: "), nested{})
	if string(got) != "x: "+want {
		t.Fatalf("rendered\n%s\nwant\n%s", got[3:], want)
	}
	var doc map[string]any
	if err := json.Unmarshal(got[3:], &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
}

// TestRegistryOrderAndConcurrency: sections render in registration order,
// and a section registered while another goroutine renders is either in
// that rendering or not — the document is well-formed either way.
func TestRegistryOrderAndConcurrency(t *testing.T) {
	var r Registry
	r.Register("b", leaves{})
	r.Register("a", nested{})
	if got := string(AppendJSON(nil, &r)); !strings.HasPrefix(got, `{"b":{"gauge":-3,`) || !strings.Contains(got, `},"a":{"top":1,`) {
		t.Fatalf("sections out of registration order: %s", got)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			r.Register(string(rune('c'+i%20)), leaves{})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if !json.Valid(AppendJSON(nil, &r)) {
				t.Error("invalid JSON while registering")
			}
		}
	}()
	wg.Wait()
}
