package faults

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/logic"
	"repro/internal/obs"
)

// Diagnosis counters, resolved once against the process-wide collector.
var (
	cDictBuilds    = obs.Default.Counter("faults.dict.builds")
	cDictEntries   = obs.Default.Counter("faults.dict.entries")
	cDiagnoseCalls = obs.Default.Counter("faults.diagnose.calls")
)

// Signature is a fault's full-response signature over a vector set: for
// each vector, which primary outputs differ from the good circuit. It is
// the classic full-fault-dictionary entry, encoded as one uint64 per
// vector with bit o set when output o miscompares (circuits here have
// ≤ 64 outputs).
type Signature []uint64

// key folds a signature into a comparable string for map indexing.
func (s Signature) key() string {
	b := make([]byte, 0, len(s)*8)
	for _, w := range s {
		for i := 0; i < 8; i++ {
			b = append(b, byte(w>>uint(8*i)))
		}
	}
	return string(b)
}

// IsZero reports whether the signature shows no miscompare at all (the
// fault is not detected by the vector set).
func (s Signature) IsZero() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Dictionary is a full fault dictionary: per-fault response signatures
// over a fixed vector set, indexed for diagnosis.
type Dictionary struct {
	c       *logic.Circuit
	vectors []Vector
	faults  []Fault
	sigs    []Signature
	byKey   map[string][]int // signature → fault indices (ambiguity sets)
}

// BuildDictionary simulates every fault against the vector set and
// indexes the observed response signatures. Circuits with more than 64
// primary outputs are rejected (one word per vector keeps the dictionary
// compact).
func BuildDictionary(c *logic.Circuit, vectors []Vector, fs []Fault) (*Dictionary, error) {
	defer obs.Default.StartSpan("faults.build_dictionary").End()
	cDictBuilds.Inc()
	cDictEntries.Add(int64(len(fs)))
	if len(c.Outputs()) > 64 {
		return nil, fmt.Errorf("faults: dictionary supports ≤64 outputs, circuit has %d", len(c.Outputs()))
	}
	d := &Dictionary{
		c:       c,
		vectors: append([]Vector(nil), vectors...),
		faults:  append([]Fault(nil), fs...),
		byKey:   map[string][]int{},
	}
	d.sigs = d.signatures(d.faults)
	for fi, sig := range d.sigs {
		k := sig.key()
		d.byKey[k] = append(d.byKey[k], fi)
	}
	return d, nil
}

// signatures simulates each fault against the dictionary's vectors, 64
// at a time, and transposes the per-output difference words into one
// miscompare word per vector.
func (d *Dictionary) signatures(fs []Fault) []Signature {
	sim := NewSimulator(d.c)
	outs := d.c.Outputs()
	bad := make([]uint64, len(outs))
	sigs := make([]Signature, len(fs))
	for fi := range sigs {
		sigs[fi] = make(Signature, len(d.vectors))
	}
	for base := 0; base < len(d.vectors); base += 64 {
		sim.Load(d.vectors[base:])
		for fi, f := range fs {
			if sim.Faulty(f, outs, bad) == 0 {
				continue
			}
			for o, id := range outs {
				diff := (bad[o] ^ sim.Good(id)) & sim.mask
				for ; diff != 0; diff &= diff - 1 {
					sigs[fi][base+bits.TrailingZeros64(diff)] |= 1 << uint(o)
				}
			}
		}
	}
	return sigs
}

// Signature returns the stored signature of fault index fi.
func (d *Dictionary) Signature(fi int) Signature { return d.sigs[fi] }

// Faults returns the dictionary's fault list.
func (d *Dictionary) Faults() []Fault { return d.faults }

// Diagnose returns the faults whose stored signature exactly matches the
// observed one, sorted by fault index — the candidate ambiguity set. An
// all-zero observation returns nil (nothing failed).
func (d *Dictionary) Diagnose(observed Signature) []Fault {
	cDiagnoseCalls.Inc()
	if observed.IsZero() {
		return nil
	}
	idx := d.byKey[observed.key()]
	sort.Ints(idx)
	out := make([]Fault, len(idx))
	for i, fi := range idx {
		out[i] = d.faults[fi]
	}
	return out
}

// ObserveFault simulates the given fault against the dictionary's vector
// set and returns its response signature — convenience for tests and the
// diagnosis examples ("tester output" for a known defect).
func (d *Dictionary) ObserveFault(f Fault) Signature {
	return d.signatures([]Fault{f})[0]
}

// Diagnosability summarises how well the vector set distinguishes the
// fault list.
type Diagnosability struct {
	Faults        int
	Undetected    int // all-zero signatures
	Distinguished int // faults alone in their ambiguity set
	Classes       int // distinct non-zero signatures
	LargestClass  int
}

// Diagnosability computes the dictionary's resolution statistics. All
// faults in one ambiguity set share a signature by construction, so the
// first member's signature classifies the whole set.
func (d *Dictionary) Diagnosability() Diagnosability {
	res := Diagnosability{Faults: len(d.faults)}
	for _, idx := range d.byKey {
		if d.sigs[idx[0]].IsZero() {
			res.Undetected += len(idx)
			continue
		}
		res.Classes++
		if len(idx) == 1 {
			res.Distinguished++
		}
		if len(idx) > res.LargestClass {
			res.LargestClass = len(idx)
		}
	}
	return res
}
