// Package instructions implements the runtime instruction set of SystemDS-Go
// (the physical operators produced by lowering HOP DAGs, Section 2.3): data
// generation, unary/binary/ternary operations, aggregations, matrix
// multiplication with local, BLAS-like, distributed and federated variants,
// reorganizations, indexing, linear system solvers, parameterized builtins,
// frame transformations, I/O, control instructions and function calls.
package instructions

import (
	"fmt"
	"strings"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// Operand is an instruction operand: either a variable reference or a scalar
// literal.
type Operand struct {
	Name  string
	IsLit bool
	Lit   *runtime.Scalar
}

// Var creates a variable operand.
func Var(name string) Operand { return Operand{Name: name} }

// LitDouble creates a numeric literal operand.
func LitDouble(v float64) Operand { return Operand{IsLit: true, Lit: runtime.NewDouble(v)} }

// LitInt creates an integer literal operand.
func LitInt(v int64) Operand { return Operand{IsLit: true, Lit: runtime.NewInt(v)} }

// LitBool creates a boolean literal operand.
func LitBool(v bool) Operand { return Operand{IsLit: true, Lit: runtime.NewBool(v)} }

// LitString creates a string literal operand.
func LitString(s string) Operand { return Operand{IsLit: true, Lit: runtime.NewString(s)} }

// IsVar reports whether the operand references a variable.
func (o Operand) IsVar() bool { return !o.IsLit }

// Resolve returns the operand's runtime value.
func (o Operand) Resolve(ctx *runtime.Context) (runtime.Data, error) {
	if o.IsLit {
		return o.Lit, nil
	}
	return ctx.Get(o.Name)
}

// Scalar resolves the operand as a scalar.
func (o Operand) Scalar(ctx *runtime.Context) (*runtime.Scalar, error) {
	d, err := o.Resolve(ctx)
	if err != nil {
		return nil, err
	}
	s, ok := d.(*runtime.Scalar)
	if !ok {
		if lm, isMat := d.(runtime.LocalMatrix); isMat {
			dc := lm.DataCharacteristics()
			if dc.Rows == 1 && dc.Cols == 1 {
				blk, err := lm.LocalBlock("scalar")
				if err != nil {
					return nil, err
				}
				return runtime.NewDouble(blk.Get(0, 0)), nil
			}
		}
		return nil, fmt.Errorf("instructions: operand %s is not a scalar", o.Desc())
	}
	return s, nil
}

// MatrixBlockFor resolves the operand as a local matrix block (scalars are
// promoted to 1x1), recording the consuming opcode when the read forces a
// fallback decompression of a compressed variable.
func (o Operand) MatrixBlockFor(ctx *runtime.Context, op string) (*matrix.MatrixBlock, error) {
	if o.IsLit {
		m := matrix.NewDense(1, 1)
		m.Set(0, 0, o.Lit.Float64())
		return m, nil
	}
	return ctx.GetMatrixBlockFor(o.Name, op)
}

// Float64 resolves the operand as a float.
func (o Operand) Float64(ctx *runtime.Context) (float64, error) {
	s, err := o.Scalar(ctx)
	if err != nil {
		return 0, err
	}
	return s.Float64(), nil
}

// Int resolves the operand as an int.
func (o Operand) Int(ctx *runtime.Context) (int, error) {
	v, err := o.Float64(ctx)
	return int(v), err
}

// StringValue resolves the operand as a string.
func (o Operand) StringValue(ctx *runtime.Context) (string, error) {
	s, err := o.Scalar(ctx)
	if err != nil {
		return "", err
	}
	return s.StringValue(), nil
}

// Desc renders the operand for lineage data and error messages: literals by
// value, variables by a placeholder (their lineage is traced separately).
func (o Operand) Desc() string {
	if o.IsLit {
		return o.Lit.StringValue()
	}
	return "°" + o.Name
}

// varNames extracts the variable names among a set of operands.
func varNames(ops ...Operand) []string {
	var names []string
	for _, o := range ops {
		if o.IsVar() {
			names = append(names, o.Name)
		}
	}
	return names
}

// litDescs renders the literal operands for lineage data.
func litDescs(ops ...Operand) string {
	var parts []string
	for i, o := range ops {
		if o.IsLit {
			parts = append(parts, fmt.Sprintf("%d=%s", i, o.Lit.StringValue()))
		}
	}
	return strings.Join(parts, ",")
}

// base provides the common operand bookkeeping embedded by all instructions.
type base struct {
	opcode string
	ins    []Operand
	outs   []string
	extra  string // additional lineage data (e.g. seeds, file names)
}

func newBase(opcode string, outs []string, extra string, ins ...Operand) base {
	return base{opcode: opcode, ins: ins, outs: outs, extra: extra}
}

// Opcode implements runtime.Instruction.
func (b *base) Opcode() string { return b.opcode }

// Inputs implements runtime.Instruction.
func (b *base) Inputs() []string { return varNames(b.ins...) }

// Outputs implements runtime.Instruction.
func (b *base) Outputs() []string { return b.outs }

// LineageData implements runtime.Instruction.
func (b *base) LineageData() string {
	lit := litDescs(b.ins...)
	if b.extra == "" {
		return lit
	}
	if lit == "" {
		return b.extra
	}
	return b.extra + ";" + lit
}
