// Package counter implements the saturating up/down counters used as the
// prediction unit of table-based branch predictors (Yeh & Patt two-level
// schemes, gshare, 2Bc-gskew), as a Sat value or as a bare 2-bit uint8
// in a flat table.
//
// A direction counter of width w saturates in [0, 2^w-1]; values in the
// upper half predict taken. The paper's pattern tables use the classic
// 2-bit counter: "the two-bit counter that provided the prediction is only
// incremented if the branch was actually taken, and only decremented if the
// branch was actually not-taken" (Section 3.2).
package counter

import "fmt"

// Sat is an unsigned saturating counter of configurable width (1..8 bits).
type Sat struct {
	v    uint8
	max  uint8
	half uint8
}

// NewSat returns a counter of the given bit width, initialised to the given
// value (clamped to the representable range). Width must be in [1, 8];
// widths outside the range are clamped.
//
//pclint:hotpath
func NewSat(width uint, init uint8) Sat {
	if width < 1 {
		width = 1
	}
	if width > 8 {
		width = 8
	}
	max := uint8((uint16(1) << width) - 1)
	c := Sat{max: max, half: uint8(uint16(1) << (width - 1))}
	c.Set(init)
	return c
}

// NewSat2 returns the canonical 2-bit counter initialised to weakly
// not-taken (01), the standard cold value.
//
//pclint:hotpath
func NewSat2() Sat { return NewSat(2, 1) }

// Value returns the raw counter value.
//
//pclint:hotpath
func (c Sat) Value() uint8 { return c.v }

// Max returns the saturation ceiling.
//
//pclint:hotpath
func (c Sat) Max() uint8 { return c.max }

// Taken reports the predicted direction: true when the counter is in the
// upper half of its range.
//
//pclint:hotpath
func (c Sat) Taken() bool { return c.v >= c.half }

// Set stores v, clamped to the counter range.
//
//pclint:hotpath
func (c *Sat) Set(v uint8) {
	if v > c.max {
		v = c.max
	}
	c.v = v
}

// Update moves the counter toward the observed outcome: increment on
// taken, decrement on not-taken, saturating at both ends.
//
//pclint:hotpath
func (c *Sat) Update(taken bool) {
	if taken {
		if c.v < c.max {
			c.v++
		}
	} else if c.v > 0 {
		c.v--
	}
}

// Reinforce moves the counter toward the given direction only if it
// already agrees; otherwise it is a no-op. Used by partial-update policies
// (2Bc-gskew strengthens only the tables that were correct).
//
//pclint:hotpath
func (c *Sat) Reinforce(taken bool) {
	if c.Taken() == taken {
		c.Update(taken)
	}
}

// ---- bare 2-bit counters ----
//
// The flat pattern tables of the table-based predictors (gshare, gskew,
// tagged gshare) store the canonical 2-bit counter as a bare uint8 in
// [0, 3] for density. These free functions are the single definition of
// that counter's policy; they inline to the same code as open-coded
// increments while keeping the semantics in one place.

// Sat2Cold is the standard cold value, weakly not-taken.
const Sat2Cold uint8 = 1

// Sat2Taken reports the predicted direction of a bare 2-bit counter.
//
//pclint:hotpath
func Sat2Taken(v uint8) bool { return v >= 2 }

// Sat2Update moves the counter toward the observed outcome, saturating
// at both ends.
//
//pclint:hotpath
func Sat2Update(c *uint8, taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// Sat2Reinforce strengthens the counter toward the direction only if it
// already agrees; used by partial-update policies (2Bc-gskew strengthens
// only the tables that were correct).
//
//pclint:hotpath
func Sat2Reinforce(c *uint8, taken bool) {
	if Sat2Taken(*c) == taken {
		Sat2Update(c, taken)
	}
}

// Sat2Weak returns the weakly-biased cold value for an entry initialised
// "according to the branch's outcome" (Section 4 of the paper).
//
//pclint:hotpath
func Sat2Weak(taken bool) uint8 {
	if taken {
		return 2
	}
	return Sat2Cold
}

// ValidateSat2 checks that every value in a flat 2-bit counter table is
// representable (0..3). Restoring a corrupt checkpoint must fail here
// rather than leave counters the saturation logic can never reach.
func ValidateSat2(table []uint8) error {
	for i, v := range table {
		if v > 3 {
			return fmt.Errorf("counter: entry %d holds %d, outside the 2-bit range", i, v)
		}
	}
	return nil
}
