//! Golden wire bytes: the exact `PTIB` and SOAP encodings of one fixed
//! object graph.
//!
//! The object has declared fields of every scalar kind, a field it
//! inherits from its superclass, a nested object, an array and two
//! fields its type does not declare (one sorting before every declared
//! name, one between them). Both encoders write fields in name order,
//! declared and undeclared merged, so a change to how an object stores
//! its fields that reorders, drops or renames one changes these bytes.
//! The constants were produced by the `BTreeMap`-backed object model
//! that preceded the shared field table.

use pti_metamodel::{primitives, Runtime, TypeDef, Value};
use pti_serialize::{from_binary, from_soap_string, to_binary, to_soap_string};

const GOLDEN_PTIB: &str = concat!(
    "505449420108019bc0c724ef1ff2a30ce5570777dacaeb090861617264766172",
    "6b060a756e6465636c61726564066163746976650208637573746f6d65720802",
    "e5001bcad4dd6b3e5b7c8e7202ca6f5701046e616d650610416461203c263e20",
    "4c6f76656c61636502696404a1fe0a056c6162656c06056669727374066c6567",
    "616379030e0570726963650500000000000029400371747903d8040474616773",
    "070206016100",
);

const GOLDEN_SOAP: &str = concat!(
    r#"<Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema">"#,
    r#"<Body>"#,
    r#"<object id="1" type="Order" guid="ebcada77-0757-e50c-a3f2-1fef24c7c09b">"#,
    r#"<field name="aardvark"><string xsi:type="xsd:string">undeclared</string></field>"#,
    r#"<field name="active"><boolean xsi:type="xsd:boolean">true</boolean></field>"#,
    r#"<field name="customer">"#,
    r#"<object id="2" type="Customer" guid="576fca02-728e-7c5b-3e6b-ddd4ca1b00e5">"#,
    r#"<field name="name"><string xsi:type="xsd:string">Ada &lt;&amp;&gt; Lovelace</string></field></object></field>"#,
    r#"<field name="id"><long xsi:type="xsd:long">-90001</long></field>"#,
    r#"<field name="label"><string xsi:type="xsd:string">first</string></field>"#,
    r#"<field name="legacy"><int xsi:type="xsd:int">7</int></field>"#,
    r#"<field name="price"><double xsi:type="xsd:double">12.5</double></field>"#,
    r#"<field name="qty"><int xsi:type="xsd:int">300</int></field>"#,
    r#"<field name="tags"><array><string xsi:type="xsd:string">a</string><null xsi:nil="true"/></array></field></object></Body></Envelope>"#,
);

fn runtime() -> Runtime {
    let mut rt = Runtime::new();
    rt.register_type(
        TypeDef::class("Entity", "golden")
            .field("id", primitives::INT64)
            .field("label", primitives::STRING)
            .ctor(vec![])
            .build(),
    )
    .unwrap();
    rt.register_type(
        TypeDef::class("Customer", "golden")
            .field("name", primitives::STRING)
            .ctor(vec![])
            .build(),
    )
    .unwrap();
    rt.register_type(
        TypeDef::class("Order", "golden")
            .extends("Entity")
            .field("qty", primitives::INT32)
            .field("price", primitives::FLOAT64)
            .field("active", primitives::BOOL)
            .field("customer", "Customer")
            .field("tags", "String[]")
            .ctor(vec![])
            .build(),
    )
    .unwrap();
    rt
}

/// The fixed graph: an `Order` pointing at a `Customer`.
fn order(rt: &mut Runtime) -> Value {
    let customer = rt.instantiate(&"Customer".into(), &[]).unwrap();
    rt.set_field(customer, "name", Value::from("Ada <&> Lovelace"))
        .unwrap();
    let order = rt.instantiate(&"Order".into(), &[]).unwrap();
    rt.set_field(order, "id", Value::I64(-90_001)).unwrap();
    rt.set_field(order, "label", Value::from("first")).unwrap();
    rt.set_field(order, "qty", Value::I32(300)).unwrap();
    rt.set_field(order, "price", Value::F64(12.5)).unwrap();
    rt.set_field(order, "active", Value::Bool(true)).unwrap();
    rt.set_field(order, "customer", Value::Obj(customer))
        .unwrap();
    rt.set_field(
        order,
        "tags",
        Value::Array(vec![Value::from("a"), Value::Null]),
    )
    .unwrap();
    let obj = rt.heap.get_mut(order).unwrap();
    obj.set("legacy", Value::I32(7));
    obj.set("aardvark", Value::from("undeclared"));
    Value::Obj(order)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn binary_encoding_matches_the_golden_bytes() {
    let mut rt = runtime();
    let v = order(&mut rt);
    let bytes = to_binary(&rt, &v).unwrap();
    assert_eq!(hex(&bytes), GOLDEN_PTIB);
    // And the golden bytes decode back to an object that re-encodes to
    // themselves.
    let back = from_binary(&mut rt, &bytes).unwrap();
    assert_eq!(hex(&to_binary(&rt, &back).unwrap()), GOLDEN_PTIB);
}

#[test]
fn soap_encoding_matches_the_golden_text() {
    let mut rt = runtime();
    let v = order(&mut rt);
    let xml = to_soap_string(&rt, &v).unwrap();
    assert_eq!(xml, GOLDEN_SOAP);
    let back = from_soap_string(&mut rt, &xml).unwrap();
    assert_eq!(to_soap_string(&rt, &back).unwrap(), GOLDEN_SOAP);
}
