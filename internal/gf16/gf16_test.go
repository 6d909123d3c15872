package gf16

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPrimitiveElementHasFullOrder(t *testing.T) {
	// x must generate the full multiplicative group: its powers must not
	// return to 1 before step Order.
	v := Elem(1)
	for i := 1; i < Order; i++ {
		v = mulNoTable(v, 2)
		if v == 1 {
			t.Fatalf("x has order %d < %d; reducing polynomial is not primitive", i, Order)
		}
	}
	v = mulNoTable(v, 2)
	if v != 1 {
		t.Fatalf("x^%d = %d, want 1", Order, v)
	}
}

func TestMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20000; trial++ {
		a := Elem(rng.Intn(1 << 16))
		b := Elem(rng.Intn(1 << 16))
		if got, want := Mul(a, b), mulNoTable(a, b); got != want {
			t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

func TestFieldAxiomsProperty(t *testing.T) {
	commutes := func(a, b uint16) bool {
		return Mul(Elem(a), Elem(b)) == Mul(Elem(b), Elem(a)) &&
			Add(Elem(a), Elem(b)) == Add(Elem(b), Elem(a))
	}
	if err := quick.Check(commutes, nil); err != nil {
		t.Error(err)
	}
	assoc := func(a, b, c uint16) bool {
		x, y, z := Elem(a), Elem(b), Elem(c)
		return Mul(Mul(x, y), z) == Mul(x, Mul(y, z))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
	distrib := func(a, b, c uint16) bool {
		x, y, z := Elem(a), Elem(b), Elem(c)
		return Mul(x, Add(y, z)) == Add(Mul(x, y), Mul(x, z))
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Error(err)
	}
}

func TestInvDiv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		a := Elem(rng.Intn(1<<16-1) + 1)
		if got := Mul(a, Inv(a)); got != 1 {
			t.Fatalf("a·a⁻¹ = %d for a=%d", got, a)
		}
		b := Elem(rng.Intn(1<<16-1) + 1)
		if got := Mul(Mul(a, Inv(b)), b); got != a {
			t.Fatalf("(a/b)·b = %d, want %d", got, a)
		}
	}
	if Inv(0) != 0 {
		t.Error("zero convention violated")
	}
}

func TestIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 1000; trial++ {
		a := Elem(rng.Intn(1 << 16))
		if Mul(a, 1) != a {
			t.Fatalf("a·1 != a for %d", a)
		}
		if Add(a, 0) != a {
			t.Fatalf("a+0 != a for %d", a)
		}
		if Add(a, a) != 0 {
			t.Fatalf("a+a != 0 for %d (characteristic 2)", a)
		}
	}
}
