// Package logic provides the gate-level combinational netlist substrate:
// circuit construction, ISCAS ".bench" parsing and writing, levelization,
// and 64-pattern bit-parallel simulation with per-line fault overrides.
//
// A circuit is a DAG of named signals. Each signal is either a primary
// input or the output of one gate. A "line" in the stuck-at fault model is
// either a signal's stem or one of its fanout branches (its connection to
// one particular consumer); both are addressed by the faults package built
// on top of this one.
package logic

import "fmt"

// GateType enumerates the supported gate functions.
type GateType int

// Supported gate types. Input signals use TypeInput; constant signals are
// occasionally useful when binding a circuit into a mixed-signal harness.
const (
	TypeInput GateType = iota
	TypeAnd
	TypeNand
	TypeOr
	TypeNor
	TypeXor
	TypeXnor
	TypeNot
	TypeBuf
	TypeConst0
	TypeConst1
)

var gateNames = map[GateType]string{
	TypeInput:  "INPUT",
	TypeAnd:    "AND",
	TypeNand:   "NAND",
	TypeOr:     "OR",
	TypeNor:    "NOR",
	TypeXor:    "XOR",
	TypeXnor:   "XNOR",
	TypeNot:    "NOT",
	TypeBuf:    "BUFF",
	TypeConst0: "CONST0",
	TypeConst1: "CONST1",
}

// String returns the .bench keyword for the gate type.
func (t GateType) String() string {
	if s, ok := gateNames[t]; ok {
		return s
	}
	return fmt.Sprintf("GateType(%d)", int(t))
}

// parseGateType resolves a .bench keyword (case-insensitive handled by the
// caller) to a GateType.
func parseGateType(s string) (GateType, bool) {
	switch s {
	case "AND":
		return TypeAnd, true
	case "NAND":
		return TypeNand, true
	case "OR":
		return TypeOr, true
	case "NOR":
		return TypeNor, true
	case "XOR":
		return TypeXor, true
	case "XNOR":
		return TypeXnor, true
	case "NOT", "INV":
		return TypeNot, true
	case "BUF", "BUFF":
		return TypeBuf, true
	}
	return 0, false
}

// arityOK reports whether n fanins is legal for the gate type.
func (t GateType) arityOK(n int) bool {
	switch t {
	case TypeInput, TypeConst0, TypeConst1:
		return n == 0
	case TypeNot, TypeBuf:
		return n == 1
	case TypeXor, TypeXnor:
		return n >= 2
	default:
		return n >= 1
	}
}

// EvalWords computes the gate function over 64-pattern words, one word
// per fanin in fanin order. It is the one definition of gate semantics
// behind every simulator.
func (t GateType) EvalWords(in []uint64) uint64 {
	switch t {
	case TypeConst0:
		return 0
	case TypeConst1:
		return ^uint64(0)
	case TypeNot:
		return ^in[0]
	case TypeBuf:
		return in[0]
	case TypeAnd, TypeNand:
		acc := ^uint64(0)
		for _, w := range in {
			acc &= w
		}
		if t == TypeNand {
			return ^acc
		}
		return acc
	case TypeOr, TypeNor:
		acc := uint64(0)
		for _, w := range in {
			acc |= w
		}
		if t == TypeNor {
			return ^acc
		}
		return acc
	case TypeXor, TypeXnor:
		acc := uint64(0)
		for _, w := range in {
			acc ^= w
		}
		if t == TypeXnor {
			return ^acc
		}
		return acc
	default:
		//lint:allow nopanic exhaustive gate-type switch; a new type is a code change, not input
		panic(fmt.Sprintf("logic: cannot evaluate %v", t))
	}
}

// ControllingValue returns the controlling input value of the gate and
// whether one exists (AND/NAND: 0, OR/NOR: 1). XOR-family and single-input
// gates have none.
func (t GateType) ControllingValue() (bool, bool) {
	switch t {
	case TypeAnd, TypeNand:
		return false, true
	case TypeOr, TypeNor:
		return true, true
	}
	return false, false
}

// Inverting reports whether the gate complements its underlying AND/OR/
// parity function (NAND, NOR, XNOR, NOT).
func (t GateType) Inverting() bool {
	switch t {
	case TypeNand, TypeNor, TypeXnor, TypeNot:
		return true
	}
	return false
}
