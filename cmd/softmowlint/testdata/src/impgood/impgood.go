// Package impgood stays off the test ban list: sibling encoding/*
// packages are fine, and the one banned import carries an annotation.
package impgood

import (
	"encoding/binary"
	"encoding/json"
	//softmow:allow layering fixture for the suppression path
	"encoding/xml"
)

func encode(v uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, v)
}

func describe(v interface{}) ([]byte, error) {
	if b, err := xml.Marshal(v); err == nil {
		return b, nil
	}
	return json.Marshal(v)
}
