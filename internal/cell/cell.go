// Package cell defines the standard-cell library used by the synthetic SOC:
// cell kinds, logic functions, pin capacitances and a linear delay model
// (intrinsic delay plus load-dependent slope), calibrated to magnitudes
// typical of a 180 nm / 1.8 V process like the one in the paper.
//
// The library replaces the vendor-supplied GSCLib technology library the
// paper uses: downstream code only consumes per-arc delays, pin/output
// capacitances and the k_volt delay-scaling factor, all of which are
// provided here.
package cell

import "fmt"

// Kind identifies a cell type in the library.
type Kind uint8

// The cell kinds available in the library. All combinational cells have a
// single output. DFF is a plain D flip-flop; SDFF is a scan flip-flop with
// a scan-input mux in front of D.
const (
	Inv Kind = iota
	Buf
	Nand2
	Nand3
	Nand4
	Nor2
	Nor3
	Nor4
	And2
	And3
	And4
	Or2
	Or3
	Or4
	Xor2
	Xnor2
	Mux2 // inputs: A, B, S; output = A when S=0, B when S=1
	Aoi21
	Oai21
	Aoi22
	Oai22
	DFF  // input: D; output Q
	SDFF // inputs: D, SI, SE; output Q
	numKinds
)

var kindNames = [...]string{
	Inv: "INV", Buf: "BUF",
	Nand2: "NAND2", Nand3: "NAND3", Nand4: "NAND4",
	Nor2: "NOR2", Nor3: "NOR3", Nor4: "NOR4",
	And2: "AND2", And3: "AND3", And4: "AND4",
	Or2: "OR2", Or3: "OR3", Or4: "OR4",
	Xor2: "XOR2", Xnor2: "XNOR2", Mux2: "MUX2",
	Aoi21: "AOI21", Oai21: "OAI21", Aoi22: "AOI22", Oai22: "OAI22",
	DFF: "DFF", SDFF: "SDFF",
}

var kindInputs = [...]int{
	Inv: 1, Buf: 1,
	Nand2: 2, Nand3: 3, Nand4: 4,
	Nor2: 2, Nor3: 3, Nor4: 4,
	And2: 2, And3: 3, And4: 4,
	Or2: 2, Or3: 3, Or4: 4,
	Xor2: 2, Xnor2: 2, Mux2: 3,
	Aoi21: 3, Oai21: 3, Aoi22: 4, Oai22: 4,
	DFF: 1, SDFF: 3,
}

// NumKinds returns the number of defined cell kinds. Table-driven
// consumers (e.g. the ATPG propagation-needs table) size their per-kind
// arrays with it instead of hard-coding the library.
func NumKinds() int { return int(numKinds) }

// String returns the library name of the kind, e.g. "NAND2".
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// NumInputs returns the number of logic input pins of the kind.
// For SDFF that is 3 (D, SI, SE); the clock pin is not modeled as a logic pin.
func (k Kind) NumInputs() int {
	if int(k) < len(kindInputs) {
		return kindInputs[k]
	}
	return 0
}

// IsSequential reports whether the kind is a flip-flop.
func (k Kind) IsSequential() bool { return k == DFF || k == SDFF }

// Valid reports whether k names a defined library cell.
func (k Kind) Valid() bool { return k < numKinds }

// KindByName returns the kind whose library name matches s.
func KindByName(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Cell carries the electrical and timing characterization of one library
// cell. Delays follow a linear model: delay = intrinsic + slope * loadCap.
type Cell struct {
	Kind Kind
	Name string

	RiseIntrinsic float64 // ns, unloaded rise delay
	FallIntrinsic float64 // ns, unloaded fall delay
	RiseSlope     float64 // ns per fF of load
	FallSlope     float64 // ns per fF of load

	InputCap  float64 // fF presented by each input pin
	OutputCap float64 // fF intrinsic output (drain) capacitance
	Area      float64 // relative placement area units
}

// RiseDelay returns the rising output delay (ns) driving loadFF femtofarads.
func (c *Cell) RiseDelay(loadFF float64) float64 {
	return c.RiseIntrinsic + c.RiseSlope*loadFF
}

// FallDelay returns the falling output delay (ns) driving loadFF femtofarads.
func (c *Cell) FallDelay(loadFF float64) float64 {
	return c.FallIntrinsic + c.FallSlope*loadFF
}

// Library is a complete characterized cell library plus the process-level
// constants consumed by the power and IR-drop models.
type Library struct {
	Name  string
	VDD   float64 // nominal supply voltage, volts
	KVolt float64 // delay-scaling factor: delay *= 1 + KVolt*dV (dV in volts relative to VDD)

	cells [numKinds]Cell
}

// Cell returns the characterization of kind k.
func (l *Library) Cell(k Kind) *Cell {
	if !k.Valid() {
		panic(fmt.Sprintf("cell: invalid kind %d", k))
	}
	return &l.cells[k]
}

// Kinds returns all kinds defined in the library, in declaration order.
func (l *Library) Kinds() []Kind {
	out := make([]Kind, 0, int(numKinds))
	for k := Kind(0); k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// New180nm builds the default library at 180 nm / 1.8 V magnitudes.
// k_volt = 0.9 matches the paper's vendor library: a 5% supply droop
// (dV = 0.09 V ... the paper quotes dV = 0.1 V for a 9% delay increase).
func New180nm() *Library {
	l := &Library{Name: "gsc180-repro", VDD: 1.8, KVolt: 0.9}
	// def installs one cell; d* in ns, caps in fF, slope in ns/fF.
	def := func(k Kind, dr, df, sr, sf, inCap, outCap, area float64) {
		l.cells[k] = Cell{
			Kind: k, Name: k.String(),
			RiseIntrinsic: dr, FallIntrinsic: df,
			RiseSlope: sr, FallSlope: sf,
			InputCap: inCap, OutputCap: outCap, Area: area,
		}
	}
	def(Inv, 0.030, 0.025, 0.0016, 0.0013, 2.1, 1.6, 1)
	def(Buf, 0.055, 0.050, 0.0012, 0.0011, 2.3, 1.8, 2)
	def(Nand2, 0.045, 0.038, 0.0019, 0.0015, 2.4, 2.2, 2)
	def(Nand3, 0.058, 0.050, 0.0022, 0.0018, 2.6, 2.6, 3)
	def(Nand4, 0.072, 0.064, 0.0026, 0.0021, 2.8, 3.0, 4)
	def(Nor2, 0.052, 0.040, 0.0021, 0.0015, 2.4, 2.3, 2)
	def(Nor3, 0.068, 0.050, 0.0026, 0.0018, 2.6, 2.8, 3)
	def(Nor4, 0.086, 0.062, 0.0031, 0.0021, 2.8, 3.2, 4)
	def(And2, 0.068, 0.060, 0.0014, 0.0013, 2.4, 2.4, 3)
	def(And3, 0.082, 0.072, 0.0016, 0.0015, 2.6, 2.8, 4)
	def(And4, 0.096, 0.086, 0.0018, 0.0016, 2.8, 3.2, 5)
	def(Or2, 0.072, 0.062, 0.0015, 0.0013, 2.4, 2.4, 3)
	def(Or3, 0.088, 0.076, 0.0017, 0.0015, 2.6, 2.8, 4)
	def(Or4, 0.104, 0.090, 0.0019, 0.0016, 2.8, 3.2, 5)
	def(Xor2, 0.095, 0.090, 0.0021, 0.0019, 3.1, 3.0, 5)
	def(Xnor2, 0.095, 0.090, 0.0021, 0.0019, 3.1, 3.0, 5)
	def(Mux2, 0.085, 0.080, 0.0018, 0.0016, 2.7, 2.8, 5)
	def(Aoi21, 0.060, 0.048, 0.0023, 0.0017, 2.5, 2.6, 3)
	def(Oai21, 0.062, 0.046, 0.0023, 0.0017, 2.5, 2.6, 3)
	def(Aoi22, 0.074, 0.060, 0.0026, 0.0019, 2.7, 3.0, 4)
	def(Oai22, 0.076, 0.058, 0.0026, 0.0019, 2.7, 3.0, 4)
	// Flops: clock-to-Q delay as "intrinsic"; D/SI/SE pins share InputCap.
	def(DFF, 0.180, 0.170, 0.0015, 0.0014, 2.9, 3.4, 8)
	def(SDFF, 0.200, 0.190, 0.0015, 0.0014, 3.0, 3.6, 10)
	return l
}
