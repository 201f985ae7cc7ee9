package value

import (
	"encoding/binary"
	"fmt"
)

// The binary encoding of a Value is one type byte, one null byte, and a
// type-dependent payload. It is used by the database snapshot writer
// and the network wire protocol (both via encoding/gob, which picks up
// these methods).

// MarshalBinary implements encoding.BinaryMarshaler.
func (v Value) MarshalBinary() ([]byte, error) {
	buf := []byte{byte(v.typ), 0}
	if v.null {
		buf[1] = 1
		return buf, nil
	}
	switch v.typ {
	case Integer, Float, Timestamp:
		buf = binary.BigEndian.AppendUint64(buf, v.num)
	case String, Version:
		buf = append(buf, v.s...)
	case Boolean:
		if v.Bool() {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	default:
		return nil, fmt.Errorf("value: cannot marshal type %v", v.typ)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (v *Value) UnmarshalBinary(data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("value: truncated binary value")
	}
	typ := Type(data[0])
	if _, ok := typeNames[typ]; !ok {
		return fmt.Errorf("value: invalid type byte %d", data[0])
	}
	*v = Value{typ: typ}
	if data[1] == 1 {
		v.null = true
		return nil
	}
	payload := data[2:]
	switch typ {
	case Integer, Float, Timestamp:
		if len(payload) != 8 {
			return fmt.Errorf("value: bad %s payload length %d", typ, len(payload))
		}
		v.num = binary.BigEndian.Uint64(payload)
	case String, Version:
		v.s = string(payload)
	case Boolean:
		if len(payload) != 1 {
			return fmt.Errorf("value: bad boolean payload length %d", len(payload))
		}
		if payload[0] == 1 {
			v.num = 1
		}
	}
	return nil
}
