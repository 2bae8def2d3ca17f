package runstore

// OracleCanonical exposes the reference encoding to the external tests.
var OracleCanonical = oracleCanonical
