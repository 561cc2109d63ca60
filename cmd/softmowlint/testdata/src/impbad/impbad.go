// Package impbad imports a package the test ban list forbids: a finding
// however the import is spelled (plain, renamed, or blank).
package impbad

import (
	"bytes"
	"encoding/json"
	wire "encoding/xml" // want layering
)

func encode(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	err := wire.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func describe(v interface{}) ([]byte, error) {
	return json.Marshal(v)
}
