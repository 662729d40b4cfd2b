package mig

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"

	"machlock/internal/wire"
)

// A codec packs and unpacks one routine structure type. It is built once,
// by a walk over the type's fields, and after that moves field values by
// index and encoding without walking the type again: the fixed-layout stub
// MiG generates.
type codec struct {
	typ    reflect.Type
	fields []field
}

type field struct {
	index int
	enc   encoding
}

type encoding uint8

const (
	encBool encoding = iota
	encInt
	encUint
	encString
	encBytes
)

// codecs caches codecs by type: Call has no Define to build them ahead of
// the first call.
var codecs sync.Map // reflect.Type -> *codec

// codecOf returns T's codec, building it on first use. A type the codec
// cannot pack is an error.
func codecOf[T any]() (*codec, error) { return codecFor(reflect.TypeFor[T]()) }

func codecFor(t reflect.Type) (*codec, error) {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec), nil
	}
	c, err := buildCodec(t)
	if err != nil {
		return nil, err
	}
	actual, _ := codecs.LoadOrStore(t, c)
	return actual.(*codec), nil
}

// buildCodec accepts a struct whose fields are all exported booleans,
// integers, strings or byte slices: what a message carries inline.
func buildCodec(t reflect.Type) (*codec, error) {
	if t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("mig: %v is not a struct", t)
	}
	c := &codec{typ: t}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			return nil, fmt.Errorf("mig: %v.%s is unexported", t, f.Name)
		}
		var enc encoding
		switch f.Type.Kind() {
		case reflect.Bool:
			enc = encBool
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			enc = encInt
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			enc = encUint
		case reflect.String:
			enc = encString
		case reflect.Slice:
			if f.Type.Elem().Kind() != reflect.Uint8 {
				return nil, fmt.Errorf("mig: %v.%s: cannot pack %v", t, f.Name, f.Type)
			}
			enc = encBytes
		default:
			return nil, fmt.Errorf("mig: %v.%s: cannot pack %v", t, f.Name, f.Type)
		}
		c.fields = append(c.fields, field{index: i, enc: enc})
	}
	return c, nil
}

// pack encodes *v, a pointer to the codec's type; a nil pointer packs the
// zero value.
func (c *codec) pack(v any) []byte {
	rv := reflect.ValueOf(v).Elem()
	if !rv.IsValid() {
		rv = reflect.Zero(c.typ)
	}
	b := make([]byte, 0, 32)
	for _, f := range c.fields {
		fv := rv.Field(f.index)
		switch f.enc {
		case encBool:
			b = wire.AppendBool(b, fv.Bool())
		case encInt:
			b = binary.AppendVarint(b, fv.Int())
		case encUint:
			b = binary.AppendUvarint(b, fv.Uint())
		case encString:
			b = wire.AppendString(b, fv.String())
		case encBytes:
			b = wire.AppendBytes(b, fv.Bytes())
		}
	}
	return b
}

// unpack decodes p into *v, a pointer to a zero value of the codec's type.
// Byte-slice fields alias p; an empty one stays nil.
func (c *codec) unpack(p []byte, v any) error {
	rv := reflect.ValueOf(v).Elem()
	r := wire.NewReader(p)
	for _, f := range c.fields {
		fv := rv.Field(f.index)
		switch f.enc {
		case encBool:
			fv.SetBool(r.Bool())
		case encInt:
			x := r.Varint()
			if fv.OverflowInt(x) {
				return fmt.Errorf("mig: unpack %v: %d overflows %v", c.typ, x, fv.Type())
			}
			fv.SetInt(x)
		case encUint:
			x := r.Uvarint()
			if fv.OverflowUint(x) {
				return fmt.Errorf("mig: unpack %v: %d overflows %v", c.typ, x, fv.Type())
			}
			fv.SetUint(x)
		case encString:
			fv.SetString(string(r.Bytes()))
		case encBytes:
			if b := r.Bytes(); len(b) > 0 {
				fv.SetBytes(b)
			}
		}
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("mig: unpack %v: %w", c.typ, err)
	}
	return nil
}
