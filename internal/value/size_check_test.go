package value

import (
	"testing"
	"unsafe"
)

// The Value struct is copied in every scan/filter/projection hot loop;
// this test pins the compact layout — a type byte, a null byte, one
// datum word and a string header — so a field addition that balloons
// the struct is a conscious decision, not an accident.
func TestValueSize(t *testing.T) {
	if s := unsafe.Sizeof(Value{}); s != 32 {
		t.Errorf("sizeof(Value) = %d, want 32", s)
	}
}
