package mig

import "reflect"

// Pack encodes *v, a pointer to a routine structure, as Call would.
func Pack(v any) ([]byte, error) {
	c, err := codecFor(reflect.TypeOf(v).Elem())
	if err != nil {
		return nil, err
	}
	return c.pack(v), nil
}

// Unpack decodes p into *v, a pointer to a zero routine structure, as a
// server stub would.
func Unpack(p []byte, v any) error {
	c, err := codecFor(reflect.TypeOf(v).Elem())
	if err != nil {
		return err
	}
	return c.unpack(p, v)
}

// ForgetCodec drops T's cached codec, so the next call builds it again.
func ForgetCodec[T any]() { codecs.Delete(reflect.TypeFor[T]()) }
