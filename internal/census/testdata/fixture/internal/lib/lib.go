// Package lib is the census test's subject.
package lib

// Shape is reached: Total takes it.
type Shape interface {
	Area() float64
	Name() string
}

// Square is reached: main builds one.
type Square struct{ S float64 }

// Area is reached: Total calls Area through Shape.
func (q Square) Area() float64 { return q.S * q.S }

// Name is not: only Describe calls Name through Shape, and nothing
// reaches Describe.
func (q Square) Name() string { return "square" }

// Total is reached: main calls it.
func Total(shapes []Shape) float64 {
	var sum float64
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Describe is dead.
func Describe(s Shape) string { return s.Name() }

// Spare is dead too; the test allowlists it.
func Spare() int { return spareValue }

// spareValue is reached only through Spare.
const spareValue = 1

// Circle is reached: main builds one.
type Circle struct{ R float64 }

// Area is not: Circle has no Name, so it is no Shape, and Total's call
// through Shape cannot reach it.
func (c Circle) Area() float64 { return 3 * c.R * c.R }
